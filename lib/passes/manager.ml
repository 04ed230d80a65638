(** The Tawa pass pipeline (§III-A): named passes with verification
    between stages, plus the optimization toggles of §IV. *)

open Tawa_ir

type options = {
  aref_depth : int;          (* D: slots per aref ring (§III-B) *)
  mma_depth : int;           (* P: fine-grained MMA pipeline depth (§III-D.1) *)
  num_consumer_wgs : int;    (* cooperative consumer warp groups (§IV-A) *)
  persistent : bool;         (* persistent kernel transform (§IV-B) *)
  use_coarse : bool;         (* coarse-grained T/C/U pipeline (§III-D.2) *)
  verify_each : bool;        (* run the verifier after every pass *)
}

let default_options =
  {
    aref_depth = 2;
    mma_depth = 2;
    num_consumer_wgs = 1;
    persistent = false;
    use_coarse = false;
    verify_each = true;
  }

type trace_entry = {
  pass : string;
  ops_after : int;
  ops_delta : int; (* op count after - before the pass *)
  values_delta : int; (* SSA results after - before the pass *)
  ms : float; (* pass wall time, registry clock (verify excluded) *)
  applied : bool;
}

type result = {
  kernel : Kernel.t;
  trace : trace_entry list;
  warp_specialized : bool;
  coarse : bool;
}

let count_values (k : Kernel.t) =
  Op.fold_region (fun n (op : Op.op) -> n + List.length op.Op.results) 0 k.Kernel.body

(** Run the full Tawa flow on a frontend kernel. Transformation steps
    that do not apply (e.g. the coarse pipeline on a plain GEMM) are
    recorded as skipped rather than failing: the compiler degrades
    gracefully to the unspecialized kernel, mirroring the paper's
    "existing Triton pipeline proceeds unchanged" fallback. *)
let compile ?(options = default_options) (kernel : Kernel.t) : result =
  let trace = ref [] in
  let prev_ops = ref (Kernel.count_ops kernel) in
  let prev_values = ref (count_values kernel) in
  let last = ref (Tawa_obs.Registry.now ()) in
  let record pass k applied =
    let dt = Tawa_obs.Registry.now () -. !last in
    let ops_after = Kernel.count_ops k in
    let values_after = count_values k in
    Tawa_obs.Registry.observe ("passes." ^ pass) dt;
    trace :=
      { pass; ops_after; ops_delta = ops_after - !prev_ops;
        values_delta = values_after - !prev_values; ms = dt *. 1000.0; applied }
      :: !trace;
    prev_ops := ops_after;
    prev_values := values_after;
    (* Verify even when the pass did not apply: a no-op pass must not be
       able to hide a malformed clone it produced along the way. *)
    if options.verify_each then begin
      let v0 = Tawa_obs.Registry.now () in
      Verifier.verify k;
      Tawa_obs.Registry.observe "passes.verify" (Tawa_obs.Registry.now () -. v0)
    end;
    last := Tawa_obs.Registry.now ();
    k
  in
  let k = Kernel.clone kernel in
  (* Stamp every op with its pre-pipeline identity before any pass
     clones it: region clones copy attrs, so however many times the
     pipeline rewrites the kernel, the profiler can map a transformed
     op back to the front-end op it descends from (DESIGN.md §15).
     Skip ops already stamped (re-compiles of an already-lowered
     kernel keep their original provenance). *)
  Op.iter_region
    (fun op ->
      if Op.attr_int op "tawa.src" = None then
        Op.set_attr op "tawa.src" (Op.Attr_int op.Op.oid))
    k.Kernel.body;
  ignore (Rewrite.canonicalize k);
  let k = record "canonicalize" k true in
  let ws, k =
    match
      Partition.warp_specialize
        ~config:
          {
            Partition.aref_depth = options.aref_depth;
            num_consumer_wgs = options.num_consumer_wgs;
          }
        k
    with
    | k' -> (true, record "warp-specialize" k' true)
    | exception Partition.Not_applicable _ -> (false, record "warp-specialize" k false)
  in
  let coarse, k =
    if ws && options.use_coarse then
      match Pipeline_coarse.apply k with
      | k' -> (true, record "coarse-pipeline" k' true)
      | exception Pipeline_coarse.Not_applicable _ ->
        (false, record "coarse-pipeline" k false)
    else (false, record "coarse-pipeline" k false)
  in
  let k =
    if ws && not coarse then
      match Pipeline_fine.apply ~mma_depth:options.mma_depth k with
      | k' -> record "fine-pipeline" k' true
      | exception Pipeline_fine.Not_applicable _ -> record "fine-pipeline" k false
    else record "fine-pipeline" k false
  in
  if options.persistent then Kernel.set_attr k "persistent" (Op.Attr_bool true);
  Kernel.set_attr k "num_consumer_wgs" (Op.Attr_int options.num_consumer_wgs);
  { kernel = k; trace = List.rev !trace; warp_specialized = ws; coarse }
