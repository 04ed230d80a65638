(** Statcheck: static performance analysis over compiled kernels.

    Aggregates the {!Footprint} resource model, the {!Check_dead} and
    {!Check_pipeline} lints, and {!Tawa_machine.Resources} limits into:

    - {!lint}: the performance linter (dead stores, uninitialized
      reads, unused channels, waits without producers, over-deep MMA
      pipelines), diagnostics in deterministic order;
    - {!occupancy}: the static occupancy verdict — the pruning
      predicate the autotuner calls before paying for a simulation;
      it reads only the resident model, never the liveness pass;
    - {!occupancy_report}: the CLI/bench view with the same verdict,
      CTAs/SM, the limiting resource, per-resource headroom and the
      liveness max-live bytes;
    - {!check_kernel}: lints plus an infeasible-occupancy diagnostic
      ([tawac lint]). Compilation never runs it implicitly.

    The register/SMEM predictions are validated against the decode
    engine's measured high-water marks by the differential suite in
    [test/test_statcheck.ml]: static >= measured always, and static <=
    slack x measured on the figure kernels, so the model neither
    under-reports nor drifts into uselessly loose. *)

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
  smem_items : Footprint.smem_item list;
  total_regs : int;
  verdict : Resources.verdict;
  ctas_per_sm : int;  (** 0 when infeasible *)
  limiting : string;  (** resource that caps CTAs/SM *)
  smem_headroom : int;
  reg_headroom : int;
}

(* Tile bytes spread across the stream's threads as 32-bit registers,
   plus the per-thread scalars. *)
let part_regs (p : Footprint.part) =
  let threads = Resources.threads_per_warp_group * p.Footprint.coop in
  let tile_regs = ((p.Footprint.tensor_bytes / 4) + threads - 1) / threads in
  tile_regs + p.Footprint.scalar_regs

let total_regs (fp : Footprint.t) =
  List.fold_left
    (fun acc p ->
      acc + (part_regs p * Resources.threads_per_warp_group * p.Footprint.coop))
    0 fp.Footprint.parts

(* The verdict reads only the resident model; {!occupancy} and
   {!occupancy_report} both derive it here, so they cannot drift. *)
let verdict_of ~(limits : Resources.limits) (fp : Footprint.t) : Resources.verdict =
  let max_regs pred =
    List.fold_left
      (fun acc p -> if pred p.Footprint.role then max acc (part_regs p) else acc)
      0 fp.Footprint.parts
  in
  let worst = max_regs (fun _ -> true) in
  let smem = fp.Footprint.smem_bytes and total_regs = total_regs fp in
  if worst > limits.Resources.lim_regs_per_thread then
    Resources.Infeasible
      (Printf.sprintf "a warp group needs %d regs/thread > %d" worst
         limits.Resources.lim_regs_per_thread)
  else if smem > limits.Resources.lim_smem_bytes then
    Resources.Infeasible
      (Printf.sprintf "static SMEM %d bytes exceeds %d" smem
         limits.Resources.lim_smem_bytes)
  else if total_regs > limits.Resources.lim_regfile then
    Resources.Infeasible
      (Printf.sprintf "total registers %d exceed the %d register file"
         total_regs limits.Resources.lim_regfile)
  else
    Resources.Feasible
      {
        Resources.smem_bytes = smem;
        regs_per_thread_consumer = max_regs (fun r -> r = Op.Consumer);
        regs_per_thread_producer = max_regs (fun r -> r <> Op.Consumer);
        total_regs;
        num_warp_groups =
          List.fold_left (fun a p -> a + p.Footprint.coop) 0 fp.Footprint.parts;
      }

(** The autotuner's pruning predicate: is this kernel's static resource
    footprint feasible on one SM? *)
let occupancy ?(limits = Resources.h100) (k : Kernel.t) : Resources.verdict =
  verdict_of ~limits (Footprint.compute k)

(** The CLI/bench view: the verdict of {!occupancy} plus CTAs/SM, the
    limiting resource, headroom, and each stream's liveness max-live
    bytes (the one figure here that needs the liveness pass). *)
let occupancy_report ?(limits = Resources.h100) (k : Kernel.t) : report =
  let fp = Footprint.compute k in
  let parts =
    List.map2
      (fun (p : Footprint.part) live ->
        {
          pu_index = p.Footprint.index;
          pu_role = p.Footprint.role;
          pu_coop = p.Footprint.coop;
          pu_tensor_bytes = p.Footprint.tensor_bytes;
          pu_max_live_bytes = live;
          pu_regs_per_thread = part_regs p;
        })
      fp.Footprint.parts (Footprint.max_live k)
  in
  let total_regs = total_regs fp in
  let smem = fp.Footprint.smem_bytes in
  let verdict = verdict_of ~limits fp in
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
    smem_items = fp.Footprint.smem_items;
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

let occupancy_diagnostics ?limits (k : Kernel.t) : Diagnostic.t list =
  match occupancy ?limits k with
  | Resources.Feasible _ -> []
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
