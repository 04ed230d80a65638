(** Per-SM hardware limits (registers, shared memory) and the verdict
    type of occupancy decisions. The one model that reaches verdicts is
    the static occupancy analysis ({!Tawa_analysis.Statcheck.occupancy}),
    which the autotuner prunes with. *)

(* H100 SXM5 per-SM limits. *)
let smem_capacity_bytes = 227 * 1024 (* usable SMEM per CTA on Hopper *)
let regfile_per_sm = 65536 (* 32-bit registers *)
let max_regs_per_thread = 255
let threads_per_warp_group = 128

(** Per-SM limits bundled for consumers (the static occupancy analysis,
    the autotuner's pruning predicate) that want to model architectures
    other than the defaults above. *)
type limits = {
  lim_smem_bytes : int;
  lim_regfile : int;
  lim_regs_per_thread : int;
  lim_ctas_per_sm : int;
}

let h100 =
  {
    lim_smem_bytes = smem_capacity_bytes;
    lim_regfile = regfile_per_sm;
    lim_regs_per_thread = max_regs_per_thread;
    lim_ctas_per_sm = 32;
  }

type usage = {
  smem_bytes : int;
  regs_per_thread_consumer : int;
  regs_per_thread_producer : int;
  total_regs : int;
  num_warp_groups : int;
}

type verdict = Feasible of usage | Infeasible of string
