(** The Tawa pass pipeline (§III-A): named passes with verification
    between stages, plus the optimization toggles of §IV, and the one
    pass each baseline strategy runs. *)

open Tawa_ir
module Progcache = Tawa_machine.Progcache

include Options

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

(* ------------------------ pass-prefix sharing ---------------------- *)

(* The pipeline after one stage: its kernel, the op and value counts
   the next stage's deltas start from, and every trace entry so far,
   newest first. *)
type stage = { s_kernel : Kernel.t; s_ops : int; s_values : int; s_trace : trace_entry list }

(* Stage results keyed by everything the stage depends on (see
   {!compile}), so compiles that share a pass prefix share its kernels:
   the candidates of an autotune space differ mostly in their last
   stages. Sharing is safe because every pass clones its input before
   changing it, and transformed kernels are read-only downstream (the
   compile cache already hands one kernel to many callers). Bounded
   like the compile cache. *)
let prefixes : stage Progcache.t = Progcache.create ()

(** Forget every shared pass prefix. [Flow.clear_cache] calls this
    together with clearing the compile cache. *)
let clear_cache () = Progcache.clear prefixes

let applied s = (List.hd s.s_trace).applied

(* [f ()] and its wall time, which the registry times as
   [passes.<name>]. *)
let timed name f =
  let t0 = Tawa_obs.Registry.now () in
  let r = f () in
  let dt = Tawa_obs.Registry.now () -. t0 in
  Tawa_obs.Registry.observe ("passes." ^ name) dt;
  (r, dt)

let verify k = fst (timed "verify" (fun () -> Verifier.verify k))

(* The staged warp-specialized pipeline (see {!compile}). *)
let staged ?fingerprint (options : options) (kernel : Kernel.t) : result =
  (* Run pass [name] on [prev]; [f] returns whether it applied and its
     output. *)
  let run name prev f () =
    let (applied, k), dt = timed name (fun () -> f prev.s_kernel) in
    let ops = Kernel.count_ops k and values = count_values k in
    let entry =
      { pass = name; ops_after = ops; ops_delta = ops - prev.s_ops;
        values_delta = values - prev.s_values; ms = dt *. 1000.0; applied }
    in
    (* Verify even when the pass did not apply: a no-op pass must not be
       able to hide a malformed clone it produced along the way. *)
    verify k;
    { s_kernel = k; s_ops = ops; s_values = values; s_trace = entry :: prev.s_trace }
  in
  let stage key run = Progcache.find_or_add prefixes ~key run in
  let fingerprint =
    match fingerprint with Some f -> f | None -> Progcache.kernel_fingerprint kernel
  in
  let key = fingerprint in
  let input () =
    { s_kernel = kernel; s_ops = Kernel.count_ops kernel; s_values = count_values kernel;
      s_trace = [] }
  in
  let s =
    stage key (fun () ->
        run "canonicalize" (input ())
          (fun kernel ->
            let k = Kernel.clone kernel in
            (* Stamp every op with its pre-pipeline identity before any
               pass clones it: region clones copy attrs, so however many
               times the pipeline rewrites the kernel, the profiler can
               map a transformed op back to the front-end op it descends
               from (DESIGN.md §15). Skip ops already stamped
               (re-compiles of an already-lowered kernel keep their
               original provenance). *)
            Op.iter_region
              (fun op ->
                if Op.attr_int op "tawa.src" = None then
                  Op.set_attr op "tawa.src" (Op.Attr_int op.Op.oid))
              k.Kernel.body;
            ignore (Rewrite.canonicalize k);
            (true, k))
          ())
  in
  let key = Printf.sprintf "%s|ws%d.%d" key options.aref_depth options.num_consumer_wgs in
  let s =
    stage key
      (run "warp-specialize" s (fun k ->
           match Partition.warp_specialize ~options k with
           | k' -> (true, k')
           | exception Pass.Not_applicable _ -> (false, k)))
  in
  let ws = applied s in
  let key = Printf.sprintf "%s|coarse%b" key options.use_coarse in
  let s =
    stage key
      (run "coarse-pipeline" s (fun k ->
           if ws && options.use_coarse then
             match Pipeline_coarse.apply k with
             | k' -> (true, k')
             | exception Pass.Not_applicable _ -> (false, k)
           else (false, k)))
  in
  let coarse = applied s in
  let fine = ws && not coarse in
  let key = if fine then Printf.sprintf "%s|fine%d" key options.mma_depth else key ^ "|fine" in
  let s =
    stage key
      (run "fine-pipeline" s (fun k ->
           if fine then
             match Pipeline_fine.apply ~mma_depth:options.mma_depth k with
             | k' -> (true, k')
             | exception Pass.Not_applicable _ -> (false, k)
           else (false, k)))
  in
  let k = s.s_kernel in
  let k = if options.persistent then Kernel.with_attr k "persistent" (Op.Attr_bool true) else k in
  let k = Kernel.with_attr k "num_consumer_wgs" (Op.Attr_int options.num_consumer_wgs) in
  { kernel = k; trace = List.rev s.s_trace; warp_specialized = ws; coarse }

(* A baseline's kernel: no warp group, no trace. *)
let baseline kernel = { kernel; trace = []; warp_specialized = false; coarse = false }

(** Run the passes of [options.strategy] on a frontend kernel.

    [Warp_specialized] runs the full Tawa flow. Transformation steps
    that do not apply (e.g. the coarse pipeline on a plain GEMM) are
    recorded as skipped rather than failing: the compiler degrades
    gracefully to the unspecialized kernel, mirroring the paper's
    "existing Triton pipeline proceeds unchanged" fallback. Each stage
    is memoized on what it depends on: canonicalize on the input's
    fingerprint; warp-specialize also on D and the consumer count; the
    coarse pipeline also on [use_coarse]; the fine pipeline also on P
    when it runs. A stage that runs times, records and verifies its
    output; a shared stage returns its stored trace entries and runs
    neither, so every kernel a pass produces is verified once, when it
    is produced. [persistent] and the consumer count are set on a fresh
    record, never on a shared kernel. [fingerprint], when given, is
    [kernel]'s {!Progcache.kernel_fingerprint}, so a caller that has it
    already does not compute it twice.

    The baselines share no prefix and record no trace:
    [Sw_pipelined stages] runs {!Sw_pipeline.apply} and verifies its
    output, both timed like the staged passes, or returns [kernel] as
    written when it has no TMA-fed loop to prefetch (it is lowered
    unpipelined, as warp specialization degrades); [Sync_tma] returns
    [kernel] as written; [Naive] stamps the [load_style = "ldg"]
    attribute code generation reads, on a fresh record. *)
let compile ?fingerprint ?(options = default_options) (kernel : Kernel.t) : result =
  match options.strategy with
  | Warp_specialized -> staged ?fingerprint options kernel
  | Sw_pipelined stages -> (
    let pipelined, _ =
      timed "sw-pipeline" (fun () ->
          match Sw_pipeline.apply ~stages kernel with
          | k -> Some k
          | exception Pass.Not_applicable _ -> None)
    in
    match pipelined with
    | Some k ->
      verify k;
      baseline k
    | None -> baseline kernel)
  | Sync_tma -> baseline kernel
  | Naive -> baseline (Kernel.with_attr kernel "load_style" (Op.Attr_string "ldg"))
