(* Autotune: pruning soundness (candidates the static occupancy model
   rejects on register pressure really do exceed the limit when the
   decode engine measures them), search determinism, the store codec
   and the warm-restart path (second search serves from the tunestore
   with zero measurements), the unified Flow.compile strategy key, and
   a search that leaves the shared decode cache as it found it. *)

open Tawa_tensor
open Tawa_frontend
open Tawa_machine
open Tawa_gpusim
open Tawa_core

let small_gemm = { Workloads.m = 1024; n = 1024; k = 512; dtype = Dtype.F16 }

let small_mha =
  { Workloads.batch = 1; heads = 1; len = 1024; head_dim = 128; causal = false;
    mha_dtype = Dtype.F16 }

let counter name =
  match List.assoc_opt name (Tawa_obs.Registry.snapshot ()) with
  | Some (Tawa_obs.Registry.Int n) -> n
  | _ -> 0

(* --------------------- pruning soundness -------------------------- *)

(* Under a tightened register limit, take warp-specialized candidates
   the static model rejects on regs/thread, run each one functionally
   through [Measure.run_measured], and confirm the *measured* register
   high-water mark also exceeds the limit: pruning never discards a
   configuration that actually fits. Restricted to non-persistent
   >=128x128 candidates so the launch is a plain grid and the
   accumulator alone decides the verdict (the static model is
   conservative on operand tiles; the accumulator is always live). *)
let test_pruning_sound () =
  let lim_rpt = 64 in
  let shape = { Workloads.m = 256; n = 256; k = 128; dtype = Dtype.F16 } in
  let fam = Autotune.Gemm shape in
  let pruned_on_regs =
    List.filter_map
      (fun (c : Autotune.candidate) ->
        if
          c.Autotune.strategy = Flow.Warp_specialized
          && (not c.Autotune.persistent)
          && c.Autotune.coop = 1
          && c.Autotune.tiles.Kernels.block_m >= 128
          && c.Autotune.tiles.Kernels.block_n >= 128
        then
          let compiled =
            Flow.compile ~options:(Autotune.options_of c) (Autotune.kernel_of fam c)
          in
          let fp = Resources.footprint compiled.Flow.program in
          if List.exists (fun p -> Resources.regs_per_thread p > lim_rpt) fp.Resources.parts
          then Some (c, compiled)
          else None
        else None)
      (Autotune.space fam)
  in
  Alcotest.(check bool)
    "tight limit prunes some reg-heavy candidates" true
    (List.length pruned_on_regs >= 2);
  let fcfg = { Config.h100 with Config.mode = Config.Functional } in
  List.iteri
    (fun i ((c : Autotune.candidate), (compiled : Flow.compiled)) ->
      let a = Tensor.random ~dtype:Dtype.F16 ~seed:(41 + i) [| shape.Workloads.m; shape.Workloads.k |] in
      let b = Tensor.random ~dtype:Dtype.F16 ~seed:(51 + i) [| shape.Workloads.k; shape.Workloads.n |] in
      let out = Tensor.create ~dtype:Dtype.F16 [| shape.Workloads.m; shape.Workloads.n |] in
      let params =
        [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out;
          Sim.Rint shape.Workloads.m; Sim.Rint shape.Workloads.n;
          Sim.Rint shape.Workloads.k ]
      in
      let num_programs =
        [| max 1 (shape.Workloads.m / c.Autotune.tiles.Kernels.block_m);
           max 1 (shape.Workloads.n / c.Autotune.tiles.Kernels.block_n); 1 |]
      in
      let _, hwm =
        Measure.run_measured ~cfg:fcfg ~program:compiled.Flow.program ~params
          ~num_programs ~pop_global:Launch.no_queue ()
      in
      let measured_rpt =
        Array.fold_left
          (fun acc bytes -> max acc (((bytes / 4) + 127) / 128))
          0 hwm.Measure.hwm_reg_bytes
      in
      if measured_rpt <= lim_rpt then
        Alcotest.failf
          "%s: statically pruned at %d regs/thread but measured only %d"
          (Autotune.candidate_to_string c)
          lim_rpt measured_rpt)
    (* Two candidates with distinct tile shapes keep the functional
       runs inside the time budget while still exercising the bound. *)
    [ List.hd pruned_on_regs; List.nth pruned_on_regs (List.length pruned_on_regs - 1) ]

(* ------------------------- determinism ---------------------------- *)

let test_search_deterministic () =
  let fam = Autotune.Gemm small_gemm in
  let r1 = Autotune.search fam in
  let r2 = Autotune.search fam in
  Alcotest.(check bool)
    "same best candidate" true
    (r1.Autotune.best.Autotune.candidate = r2.Autotune.best.Autotune.candidate);
  Alcotest.(check (float 0.0))
    "same best tflops" r1.Autotune.best.Autotune.tflops
    r2.Autotune.best.Autotune.tflops;
  let s = r1.Autotune.stats in
  Alcotest.(check int) "whole space enumerated" 128 s.Autotune.total;
  Alcotest.(check bool) "static pruning fired" true (s.Autotune.pruned > 0);
  Alcotest.(check int)
    "measured = total - pruned"
    (s.Autotune.total - s.Autotune.pruned)
    s.Autotune.measured;
  Alcotest.(check bool) "no fallback on gemm" false s.Autotune.prune_fallback;
  Alcotest.(check bool)
    "prune reasons accounted" true
    (List.fold_left (fun acc (_, n) -> acc + n) 0 r1.Autotune.prune_reasons
     = s.Autotune.pruned)

(* Attention at realistic block sizes is entirely statically
   infeasible (the model counts every register tile as live); the
   search must fall back to measuring everything instead of failing. *)
let test_attention_fallback () =
  let r = Autotune.search (Autotune.Attention small_mha) in
  let s = r.Autotune.stats in
  Alcotest.(check bool) "fallback recorded" true s.Autotune.prune_fallback;
  Alcotest.(check int) "nothing counted as pruned" 0 s.Autotune.pruned;
  Alcotest.(check int) "all candidates measured" s.Autotune.total s.Autotune.measured;
  Alcotest.(check bool) "a best was found" true (r.Autotune.best.Autotune.tflops > 0.0)

(* --------------------------- store -------------------------------- *)

let test_codec_roundtrip () =
  List.iter
    (fun strategy ->
      let m =
        { Autotune.candidate =
            { Autotune.tiles = { Kernels.block_m = 128; block_n = 256; block_k = 64 };
              aref_depth = 3; mma_depth = 2; coop = 2; persistent = true;
              coarse = false; strategy };
          tflops = 750.16077202171005;
          cycles = 1286152.9012950275 }
      in
      match Autotune.decode_measurement (Autotune.encode_measurement m) with
      | Some m' ->
        Alcotest.(check bool)
          (Flow.strategy_key strategy ^ " round-trips exactly")
          true (m = m')
      | None ->
        Alcotest.failf "codec failed on %s" (Autotune.encode_measurement m))
    [ Flow.Warp_specialized; Flow.Sw_pipelined 3; Flow.Sync_tma; Flow.Naive ];
  Alcotest.(check (option unit))
    "garbage decodes to None" None
    (Option.map ignore (Autotune.decode_measurement "not|a|measurement"))

let test_shape_bucketing () =
  let key m = Autotune.store_key (Autotune.Gemm { small_gemm with Workloads.m }) in
  Alcotest.(check string) "nearby shapes share a bucket" (key 1024) (key 1000);
  Alcotest.(check bool) "distinct buckets split" true (key 1024 <> key 2048);
  Alcotest.(check bool)
    "families never collide" true
    (Autotune.store_key (Autotune.Gemm small_gemm)
     <> Autotune.store_key (Autotune.Attention small_mha))

let test_store_roundtrip () =
  let path = Filename.temp_file "tawa_tune" ".tsv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let fam = Autotune.Gemm small_gemm in
      let st1 = Tunestore.open_ ~name:"test_cold" ~path () in
      let cold = Autotune.search ~store:st1 fam in
      Alcotest.(check bool) "cold run measures" true
        (cold.Autotune.stats.Autotune.measured > 0);
      let s1 = Tunestore.stats st1 in
      Alcotest.(check int) "cold run misses once" 1 s1.Tunestore.misses;
      Alcotest.(check int) "cold run stores once" 1 s1.Tunestore.stores;
      (* A fresh handle re-reads the file: this is the warm restart. *)
      let st2 = Tunestore.open_ ~name:"test_warm" ~path () in
      Alcotest.(check int) "store persisted one entry" 1 (Tunestore.length st2);
      let measured_before = counter "autotune.measured" in
      let warm = Autotune.search ~store:st2 fam in
      Alcotest.(check bool) "warm run is store-served" true
        warm.Autotune.stats.Autotune.from_store;
      Alcotest.(check int) "warm run measures nothing" 0
        warm.Autotune.stats.Autotune.measured;
      Alcotest.(check int) "registry saw zero new measurements"
        measured_before (counter "autotune.measured");
      Alcotest.(check bool) "warm best matches cold best" true
        (warm.Autotune.best = cold.Autotune.best);
      (* Corrupt the stored payload: the search must degrade to a cold
         miss and overwrite, never crash. *)
      Tunestore.put st2 ~key:(Autotune.store_key fam) "corrupt payload";
      let st3 = Tunestore.open_ ~name:"test_corrupt" ~path () in
      let recovered = Autotune.search ~store:st3 fam in
      Alcotest.(check bool) "corrupt entry falls back to search" false
        recovered.Autotune.stats.Autotune.from_store;
      Alcotest.(check bool) "and re-persists the winner" true
        (recovered.Autotune.best = cold.Autotune.best))

(* -------------------- entries no search stores -------------------- *)

(* The GEMM family the attention demo's projection nodes look up. *)
let tiny_gemm = Autotune.Gemm { Workloads.m = 64; n = 32; k = 32; dtype = Dtype.F16 }

(* Entries that decode but name a candidate outside [Autotune.space]:
   no aref slot, an MMA depth above the aref depth, a depth the axes do
   not list, and a zero tile. *)
let out_of_space =
  let ws = Autotune.candidate (Autotune.tile 64 64 64) in
  [ ("D = 0", { ws with Autotune.aref_depth = 0; mma_depth = 0; persistent = true });
    ("P > D", { ws with Autotune.aref_depth = 2; mma_depth = 3 });
    ("D = 5", { ws with Autotune.aref_depth = 5; mma_depth = 1 });
    ("zero tile", { ws with Autotune.tiles = Autotune.tile 0 64 64 }) ]

let entry c =
  Autotune.encode_measurement { Autotune.candidate = c; tflops = 1.0; cycles = 1.0 }

(* [f path store] on a fresh store file, removed afterwards. *)
let with_store f =
  let path = Filename.temp_file "tawa_space" ".tsv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () -> f path (Tunestore.open_ ~name:"test_space" ~path ()))

let test_stored_best_in_space () =
  let key = Autotune.store_key tiny_gemm in
  List.iter
    (fun (what, c) ->
      with_store (fun _ store ->
          Tunestore.put store ~key (entry c);
          Alcotest.(check bool) (what ^ ": not served") true
            (Autotune.stored_best ~store tiny_gemm = None)))
    out_of_space;
  let c =
    { (Autotune.candidate (Autotune.tile 64 64 64)) with
      Autotune.aref_depth = 4; mma_depth = 3 }
  in
  with_store (fun _ store ->
      Tunestore.put store ~key (entry c);
      Alcotest.(check bool) "an entry of the space is served" true
        (Option.map (fun m -> m.Autotune.candidate) (Autotune.stored_best ~store tiny_gemm)
         = Some c))

let test_search_replaces_out_of_space () =
  List.iter
    (fun (what, c) ->
      with_store (fun path store ->
          Tunestore.put store ~key:(Autotune.store_key tiny_gemm) (entry c);
          let r = Autotune.search ~store tiny_gemm in
          Alcotest.(check bool) (what ^ ": measured again") true
            ((not r.Autotune.stats.Autotune.from_store)
             && r.Autotune.stats.Autotune.measured > 0);
          let reread = Tunestore.open_ ~name:"test_space" ~path () in
          Alcotest.(check bool) (what ^ ": entry overwritten by the winner") true
            (Autotune.stored_best ~store:reread tiny_gemm = Some r.Autotune.best)))
    out_of_space

(* ------------------------ tunestore fuzzing ------------------------ *)

(* The store file a search of [tiny_gemm] writes. *)
let searched_store =
  lazy
    (with_store (fun path store ->
         ignore (Autotune.search ~store tiny_gemm);
         In_channel.with_open_bin path In_channel.input_all))

(* An edit overwrites, deletes or inserts one byte, at an offset from
   the start of the file or, for half of them, within the last 64
   bytes, where the entry's payload is. *)
type edit = { tail : bool; at : int; kind : int; byte : char }

let apply_edit s e =
  let n = String.length s in
  if n = 0 then String.make 1 e.byte
  else
    let i = if e.tail then n - 1 - (e.at mod min n 64) else e.at mod n in
    match e.kind with
    | 0 -> String.mapi (fun j x -> if j = i then e.byte else x) s
    | 1 -> String.sub s 0 i ^ String.sub s (i + 1) (n - i - 1)
    | _ -> String.sub s 0 i ^ String.make 1 e.byte ^ String.sub s i (n - i)

let arb_edits =
  let gen_edit =
    QCheck.Gen.(
      map
        (fun (tail, at, (kind, byte)) -> { tail; at; kind; byte })
        (triple bool nat
           (pair (int_range 0 2)
              (oneof [ oneofl (String.to_seq "0123456789 |\t\n-.e" |> List.of_seq); char ]))))
  in
  QCheck.make
    ~print:(fun es ->
      String.concat "; "
        (List.map
           (fun e -> Printf.sprintf "%s%d:%d:%C" (if e.tail then "-" else "+") e.at e.kind e.byte)
           es))
    QCheck.Gen.(list_size (int_range 1 6) gen_edit)

let prop_tunestore_mutants =
  QCheck.Test.make ~name:"tunestore: byte mutants never raise, serve only the space"
    ~count:200 arb_edits (fun edits ->
      let text = List.fold_left apply_edit (Lazy.force searched_store) edits in
      with_store (fun path _ ->
          Out_channel.with_open_bin path (fun oc -> output_string oc text);
          let store = Tunestore.open_ ~name:"test_fuzz" ~path () in
          match Autotune.stored_best ~store tiny_gemm with
          | None -> true
          | Some m -> List.mem m.Autotune.candidate (Autotune.space tiny_gemm)))

(* -------------------- unified compile strategy -------------------- *)

let test_strategy_unification () =
  let keys =
    List.map
      (fun strategy -> Flow.options_key { Flow.default_options with strategy })
      [ Flow.Warp_specialized; Flow.Sw_pipelined 3; Flow.Sync_tma; Flow.Naive ]
  in
  Alcotest.(check int)
    "strategies never alias in the cache key" 4
    (List.length (List.sort_uniq compare keys))

(* ---------------------- private decodes ---------------------------- *)

(* A search decodes each survivor once and runs it once, so it decodes
   outside the shared decode cache: the cache ends the search as it
   began. The winner still measures bit-identically through the cache. *)
let test_search_leaves_decode_cache () =
  let fam = Autotune.Gemm { Workloads.m = 256; n = 256; k = 256; dtype = Dtype.F16 } in
  Engine.clear_decode_cache ();
  let r = Autotune.search fam in
  let s = Engine.decode_cache_stats () in
  Alcotest.(check (pair int int)) "no decode-cache misses or hits" (0, 0)
    (s.Progcache.misses, s.Progcache.hits);
  Alcotest.(check bool) "candidates were measured" true
    (r.Autotune.stats.Autotune.measured > 0);
  let best = r.Autotune.best in
  let m = Autotune.measure fam best.Autotune.candidate in
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) "same tflops bits" (bits m.Autotune.tflops)
    (bits best.Autotune.tflops);
  Alcotest.(check int64) "same cycles bits" (bits m.Autotune.cycles)
    (bits best.Autotune.cycles);
  Alcotest.(check int) "measure decodes through the cache" 1
    (Engine.decode_cache_stats ()).Progcache.misses

(* ------------------------ stored kernels -------------------------- *)

let same_timing what (a : Launch.timing) (b : Launch.timing) =
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) (what ^ ": cycles bits") (bits a.Launch.cycles) (bits b.Launch.cycles);
  Alcotest.(check int64) (what ^ ": tflops bits") (bits a.Launch.tflops) (bits b.Launch.tflops)

(* A warm [time] compiles the stored kernel through a compile-cache hit
   and times it bit-identically; [Flow.clear_cache] drops the stored
   kernels with the compiled ones, so the next [time] misses. *)
let test_stored_kernel_warm_and_cold () =
  let fam = Autotune.Gemm small_gemm in
  let c = Autotune.expert fam in
  let time () = Autotune.time ~cfg:Config.h100 fam c in
  let counts () =
    let s = Flow.cache_stats () in
    (s.Progcache.hits, s.Progcache.misses)
  in
  Flow.clear_cache ();
  let cold = time () in
  Alcotest.(check (pair int int)) "first time misses" (0, 1) (counts ());
  let kernel, _ = Autotune.stored_kernel fam c in
  let warm = time () in
  Alcotest.(check (pair int int)) "warm repeat hits" (1, 1) (counts ());
  Alcotest.(check bool) "warm repeat reuses the stored kernel" true
    (fst (Autotune.stored_kernel fam c) == kernel);
  same_timing "warm repeat" cold warm;
  Flow.clear_cache ();
  let again = time () in
  Alcotest.(check (pair int int)) "after clear_cache it misses" (0, 1) (counts ());
  Alcotest.(check bool) "and builds a fresh kernel" false
    (fst (Autotune.stored_kernel fam c) == kernel);
  same_timing "after clear_cache" cold again

(* Stored kernels are shared by every compile of their key, so no pass
   and no lowering may change its input: compiling one under every
   strategy leaves its fingerprint as stored, equal to a fresh
   build's. *)
let test_stored_kernel_unchanged () =
  List.iter
    (fun (fam, c) ->
      Flow.clear_cache ();
      let kernel, fp = Autotune.stored_kernel fam c in
      let what = Autotune.family_tag fam in
      Alcotest.(check string) (what ^ ": stored fingerprint") fp
        (Progcache.kernel_fingerprint (Autotune.kernel_of fam c));
      List.iter
        (fun strategy ->
          ignore
            (Flow.compile ~fingerprint:fp
               ~options:{ (Autotune.options_of c) with Flow.strategy }
               kernel);
          Alcotest.(check string)
            (Printf.sprintf "%s: %s leaves it unchanged" what (Flow.strategy_key strategy))
            fp (Progcache.kernel_fingerprint kernel))
        [ Flow.Warp_specialized; Flow.Sw_pipelined 3; Flow.Sync_tma; Flow.Naive ])
    [ (Autotune.Gemm small_gemm, Autotune.expert (Autotune.Gemm small_gemm));
      (Autotune.Attention small_mha, Autotune.expert (Autotune.Attention small_mha)) ]

let suites =
  [ ( "autotune",
      [ Alcotest.test_case "pruning is sound vs measured hwm" `Slow test_pruning_sound;
        Alcotest.test_case "search is deterministic" `Quick test_search_deterministic;
        Alcotest.test_case "attention falls back when all pruned" `Quick
          test_attention_fallback;
        Alcotest.test_case "store codec round-trips" `Quick test_codec_roundtrip;
        Alcotest.test_case "shapes bucket to powers of two" `Quick test_shape_bucketing;
        Alcotest.test_case "store round-trip serves warm restarts" `Quick
          test_store_roundtrip;
        Alcotest.test_case "store serves only candidates of the space" `Quick
          test_stored_best_in_space;
        Alcotest.test_case "search replaces an entry outside the space" `Quick
          test_search_replaces_out_of_space;
        QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 32 |])
          prop_tunestore_mutants;
        Alcotest.test_case "strategy unification shares the cache" `Quick
          test_strategy_unification;
        Alcotest.test_case "search leaves the decode cache as it found it" `Quick
          test_search_leaves_decode_cache;
        Alcotest.test_case "stored kernels: warm hit, cold after clear" `Quick
          test_stored_kernel_warm_and_cold;
        Alcotest.test_case "stored kernels: no strategy changes them" `Quick
          test_stored_kernel_unchanged ] ) ]
