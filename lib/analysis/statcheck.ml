(** Statcheck: static performance analysis over compiled kernels.

    Aggregates the {!Check_dead} and {!Check_pipeline} lints and the
    occupancy model of {!Tawa_machine.Resources} (a scan of the lowered
    program) into:

    - {!lint}: the performance linter (dead stores, over-deep MMA
      pipelines), diagnostics in deterministic order;
    - {!occupancy}: the static occupancy verdict of a kernel, lowered
      first; the autotuner asks {!Tawa_machine.Resources.occupancy}
      the same question of the program it already compiled;
    - {!occupancy_report}: the CLI view of a program with the same
      verdict, CTAs/SM, the limiting resource, per-resource headroom
      and the SMEM allocations;
    - {!check}: lints plus an infeasible-occupancy diagnostic read off
      the compiled program ([tawac lint]); {!check_kernel} lowers the
      kernel first. Compilation never runs either implicitly.

    Each property has one checker: undefined reads are the IR
    verifier's, unused channels and waits without a producer are
    arefcheck's ({!Check_channel}).

    The register and SMEM figures are validated against the decode
    engine's measured high-water marks by the differential suite in
    [test/test_statcheck.ml]: static >= measured on every warp group,
    and static = measured wherever the run writes every register. *)

open Tawa_ir
open Tawa_machine

exception Statcheck_failed of string * Diagnostic.t list

let () =
  Printexc.register_printer (function
    | Statcheck_failed (what, ds) ->
      Some
        (Printf.sprintf "Statcheck_failed(%s):\n%s" what
           (Diagnostic.report ds))
    | _ -> None)

(* ------------------------------ mode ------------------------------ *)

type mode = Off | Warn | Error

(* Read only by the benchmark's traced compile; no library code
   consults it. *)
let current : mode Atomic.t = Atomic.make Off

let set_mode m = Atomic.set current m
let current_mode () = Atomic.get current

(* ---------------------------- occupancy --------------------------- *)

type part_usage = {
  pu_index : int;
  pu_role : Op.wg_role;
  pu_coop : int;
  pu_tensor_bytes : int;
  pu_regs_per_thread : int;
}

type report = {
  kernel_name : string;
  parts : part_usage list;
  smem_bytes : int;
  smem_allocs : Isa.alloc list;
  total_regs : int;
  verdict : Resources.verdict;
  ctas_per_sm : int;  (** 0 when infeasible *)
  limiting : string;  (** resource that caps CTAs/SM *)
  smem_headroom : int;
  reg_headroom : int;
}

(** The autotuner's pruning predicate on a kernel: lower it and ask
    {!Resources.occupancy} whether the program is resident on one SM. *)
let occupancy (k : Kernel.t) : Resources.verdict =
  Resources.occupancy (Codegen.lower k)

(** The CLI view of [program]: the verdict of {!Resources.occupancy}
    plus CTAs/SM, the limiting resource, headroom and the SMEM
    allocations, under the H100 limits. *)
let occupancy_report (program : Isa.program) : report =
  let fp = Resources.footprint program in
  let parts =
    List.mapi
      (fun i (p : Resources.part) ->
        {
          pu_index = i;
          pu_role = p.Resources.role;
          pu_coop = p.Resources.coop;
          pu_tensor_bytes = p.Resources.tensor_bytes;
          pu_regs_per_thread = Resources.regs_per_thread p;
        })
      fp.Resources.parts
  in
  let total_regs = Resources.total_regs fp in
  let smem = fp.Resources.smem_bytes in
  let verdict = Resources.verdict_of fp in
  let ctas_per_sm, limiting =
    match verdict with
    | Resources.Infeasible _ -> (0, "infeasible")
    | Resources.Feasible _ ->
      let by_smem =
        if smem = 0 then Resources.max_ctas_per_sm else Resources.smem_capacity_bytes / smem
      in
      let by_regs =
        if total_regs = 0 then Resources.max_ctas_per_sm
        else Resources.regfile_per_sm / total_regs
      in
      let ctas = min Resources.max_ctas_per_sm (min by_smem by_regs) in
      ( ctas,
        if ctas = Resources.max_ctas_per_sm then "cta-slots"
        else if by_smem <= by_regs then "smem"
        else "registers" )
  in
  {
    kernel_name = program.Isa.name;
    parts;
    smem_bytes = smem;
    smem_allocs = program.Isa.allocs;
    total_regs;
    verdict;
    ctas_per_sm;
    limiting;
    smem_headroom = Resources.smem_capacity_bytes - smem;
    reg_headroom = Resources.regfile_per_sm - total_regs;
  }

(* ------------------------------ lints ----------------------------- *)

let lint (k : Kernel.t) : Diagnostic.t list =
  Diagnostic.sort (Check_dead.check k @ Check_pipeline.check k)

let occupancy_diagnostics (program : Isa.program) : Diagnostic.t list =
  match Resources.occupancy program with
  | Resources.Feasible _ -> []
  | Resources.Infeasible why ->
    [
      Diagnostic.error ~check:"occupancy"
        "kernel cannot be resident on an SM: %s" why;
    ]

(** Everything statcheck knows about [k] and [program], its lowering,
    in deterministic order ([tawac lint]). *)
let check (k : Kernel.t) (program : Isa.program) : Diagnostic.t list =
  Diagnostic.sort (lint k @ occupancy_diagnostics program)

(** {!check} of [k] and its lowering. A kernel codegen rejects (a
    hand-made mutant, say) has no program to read occupancy off; its
    lints stand alone. *)
let check_kernel (k : Kernel.t) : Diagnostic.t list =
  match Codegen.lower k with
  | program -> check k program
  | exception Codegen.Codegen_error _ -> lint k

let assert_clean ~what (k : Kernel.t) =
  match check_kernel k with
  | [] -> ()
  | ds -> raise (Statcheck_failed (what, ds))
