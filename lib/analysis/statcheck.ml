(** Statcheck: static performance analysis over compiled kernels.

    Aggregates the {!Check_dead} and {!Check_pipeline} lints and the
    occupancy model of {!Tawa_machine.Resources} (a scan of the lowered
    program) into:

    - {!lint}: the performance linter (dead stores, uninitialized
      reads, unused channels, waits without producers, over-deep MMA
      pipelines), diagnostics in deterministic order;
    - {!occupancy}: the static occupancy verdict of a kernel, lowered
      first; the autotuner asks {!Tawa_machine.Resources.occupancy}
      the same question of the program it already compiled;
    - {!occupancy_report}: the CLI/bench view with the same verdict,
      CTAs/SM, the limiting resource, per-resource headroom, the SMEM
      allocations and the liveness max-live bytes;
    - {!check_kernel}: lints plus an infeasible-occupancy diagnostic
      ([tawac lint]). Compilation never runs it implicitly.

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
  pu_max_live_bytes : int;
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
let occupancy ?limits (k : Kernel.t) : Resources.verdict =
  Resources.occupancy ?limits (Codegen.lower k)

(* Max over each of the [streams] streams' CFG nodes of the live-in
   tile bytes (top-level nodes count toward every stream): how much
   must be alive at once, beside the resident bytes the program holds.
   No verdict reads it, so only the report pays for the liveness
   pass. *)
let max_live (k : Kernel.t) ~streams : int list =
  let is_tile v = Types.is_tensor (Value.ty v) in
  let cfg = Dataflow.Cfg.build k in
  let live = Dataflow.Liveness.run cfg in
  let by_id = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      List.iter
        (fun v -> if is_tile v then Hashtbl.replace by_id (Value.id v) v)
        (n.Dataflow.Cfg.defs @ n.Dataflow.Cfg.uses))
    cfg.Dataflow.Cfg.nodes;
  let best = Hashtbl.create 4 in
  Array.iteri
    (fun i n ->
      let bytes =
        Dataflow.Int_set.fold
          (fun id acc ->
            match Hashtbl.find_opt by_id id with
            | Some v -> acc + Types.size_bytes (Value.ty v)
            | None -> acc)
          (Dataflow.Liveness.live_in live i)
          0
      in
      let p = n.Dataflow.Cfg.partition in
      let cur = Option.value (Hashtbl.find_opt best p) ~default:0 in
      if bytes > cur then Hashtbl.replace best p bytes)
    cfg.Dataflow.Cfg.nodes;
  let at p = Option.value (Hashtbl.find_opt best p) ~default:0 in
  let ws = Kernel.find_warp_group k <> None in
  List.init streams (fun i -> max (at (-1)) (if ws then at i else 0))

(** The CLI/bench view of [program], the lowering of [k]: the verdict
    of {!Resources.occupancy} plus CTAs/SM, the limiting resource,
    headroom, the SMEM allocations, and each stream's liveness max-live
    bytes over [k]. *)
let occupancy_report ?(limits = Resources.h100) ~(program : Isa.program) (k : Kernel.t) :
    report =
  let fp = Resources.footprint program in
  let parts =
    List.mapi
      (fun i ((p : Resources.part), live) ->
        {
          pu_index = i;
          pu_role = p.Resources.role;
          pu_coop = p.Resources.coop;
          pu_tensor_bytes = p.Resources.tensor_bytes;
          pu_max_live_bytes = live;
          pu_regs_per_thread = Resources.regs_per_thread p;
        })
      (List.combine fp.Resources.parts
         (max_live k ~streams:(List.length fp.Resources.parts)))
  in
  let total_regs = Resources.total_regs fp in
  let smem = fp.Resources.smem_bytes in
  let verdict = Resources.verdict_of ~limits fp in
  let ctas_per_sm, limiting =
    match verdict with
    | Resources.Infeasible _ -> (0, "infeasible")
    | Resources.Feasible _ ->
      let by_smem =
        if smem = 0 then limits.Resources.lim_ctas_per_sm
        else limits.Resources.lim_smem_bytes / smem
      in
      let by_regs =
        if total_regs = 0 then limits.Resources.lim_ctas_per_sm
        else limits.Resources.lim_regfile / total_regs
      in
      let ctas =
        min limits.Resources.lim_ctas_per_sm (min by_smem by_regs)
      in
      ( ctas,
        if ctas = limits.Resources.lim_ctas_per_sm then "cta-slots"
        else if by_smem <= by_regs then "smem"
        else "registers" )
  in
  {
    kernel_name = k.Kernel.name;
    parts;
    smem_bytes = smem;
    smem_allocs = program.Isa.allocs;
    total_regs;
    verdict;
    ctas_per_sm;
    limiting;
    smem_headroom = limits.Resources.lim_smem_bytes - smem;
    reg_headroom = limits.Resources.lim_regfile - total_regs;
  }

(* ------------------------------ lints ----------------------------- *)

let lint (k : Kernel.t) : Diagnostic.t list =
  Diagnostic.sort (Check_dead.check k @ Check_pipeline.check k)

(* A kernel codegen rejects (a lint finding, for instance, may leave a
   value no op defines) has no program to read occupancy off; its
   lints stand alone. *)
let occupancy_diagnostics ?limits (k : Kernel.t) : Diagnostic.t list =
  match occupancy ?limits k with
  | Resources.Feasible _ | (exception Codegen.Codegen_error _) -> []
  | Resources.Infeasible why ->
    [
      Diagnostic.error ~check:"occupancy"
        "kernel cannot be resident on an SM: %s" why;
    ]

(** Everything statcheck knows about [k], in deterministic order. *)
let check_kernel ?limits (k : Kernel.t) : Diagnostic.t list =
  Diagnostic.sort (lint k @ occupancy_diagnostics ?limits k)

let assert_clean ~what (k : Kernel.t) =
  match check_kernel k with
  | [] -> ()
  | ds -> raise (Statcheck_failed (what, ds))
