(** Hardware resource accounting (registers, shared memory) for
    occupancy and feasibility decisions.

    This model drives two results of the paper: the feasible region of
    Fig. 11 (configurations whose SMEM footprint exceeds the SM budget,
    or whose per-thread register count exceeds the architectural limit,
    do not exist), and the Fig. 12 ablation where cooperative warp
    groups relax the register bound enough to enable 128x256 tiles. *)

open Tawa_tensor

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

(** Register footprint (per thread) of a consumer warp group holding an
    [bm x bn] f32 accumulator split across [coop] cooperating groups,
    with [mma_depth] in-flight MMA fragments and a fixed scalar
    overhead. *)
let consumer_regs ~block_m ~block_n ~coop ~mma_depth =
  let acc_elems = block_m * block_n / coop in
  let acc_regs = acc_elems / threads_per_warp_group in
  (* Each extra in-flight MMA keeps roughly one k-slice of operand
     fragments live; WGMMA reads operands from SMEM so the per-depth
     cost is small but not zero (bookkeeping + epilogue staging). *)
  let pipeline_regs = (mma_depth - 1) * 24 in
  let scalar_overhead = 40 in
  acc_regs + pipeline_regs + scalar_overhead

let producer_regs = 56 (* addresses, descriptors, barrier bookkeeping *)

let gemm_ring_bytes ~block_m ~block_n ~block_k ~depth ~(dtype : Dtype.t) =
  let esz = Dtype.size_bytes dtype in
  let a_tile = block_m * block_k * esz in
  let b_tile = block_k * block_n * esz in
  depth * (a_tile + b_tile)

(** Feasibility of a warp-specialized GEMM configuration. *)
let check_gemm ~block_m ~block_n ~block_k ~aref_depth ~mma_depth ~coop ~(dtype : Dtype.t) :
    verdict =
  if mma_depth > aref_depth then
    Infeasible
      (Printf.sprintf "MMA depth P=%d exceeds aref depth D=%d (slot reuse deadlock)"
         mma_depth aref_depth)
  else begin
    let ring = gemm_ring_bytes ~block_m ~block_n ~block_k ~depth:aref_depth ~dtype in
    (* Epilogue staging + barrier storage + misc. *)
    let smem = ring + 4096 in
    if smem > smem_capacity_bytes then
      Infeasible
        (Printf.sprintf "SMEM %d bytes exceeds %d (D=%d too deep for %dx%dx%d tiles)" smem
           smem_capacity_bytes aref_depth block_m block_n block_k)
    else begin
      let rc = consumer_regs ~block_m ~block_n ~coop ~mma_depth in
      if rc > max_regs_per_thread then
        Infeasible
          (Printf.sprintf
             "consumer needs %d regs/thread > %d: tile %dx%d too large for %d warp group(s)"
             rc max_regs_per_thread block_m block_n coop)
      else begin
        let total =
          (rc * threads_per_warp_group * coop) + (producer_regs * threads_per_warp_group)
        in
        if total > regfile_per_sm then
          Infeasible (Printf.sprintf "total registers %d exceed %d" total regfile_per_sm)
        else
          Feasible
            {
              smem_bytes = smem;
              regs_per_thread_consumer = rc;
              regs_per_thread_producer = producer_regs;
              total_regs = total;
              num_warp_groups = coop + 1;
            }
      end
    end
  end
