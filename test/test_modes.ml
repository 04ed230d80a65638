(* Simulation-mode differential suite (PR 6).

   Three invariants of the hardware-fast simulation levers:

   1. modes.differential — timing-only execution is bit-identical to
      functional execution on everything the timing model reports:
      cycles, engine stats, and the PR 5 stall-attribution bucket
      floats, on pinned small shapes, for the decoded engine and the
      tree-walking oracle alike.

   2. modes.cachekey — the decode cache keys entries on
      (program fingerprint x cost-model digest x execution mode
      [x timing-opt flag]), so functional and timing decodes of one
      program never alias, and eviction works for the new key shape.
      Equal program contents share a decode, however many values or
      domains carry them; a changed instruction, provenance or cost
      field misses.

   3. modes.grouped — the grouped launcher's estimate: identical in
      functional and timing mode, bit-identical for any pool domain
      count on a wave whose CTAs genuinely differ, equal to the sum it
      documents, with rates taken over the whole wave, one decode per
      item, and closed to persistent programs.

   4. modes.cut — the incumbent cut-off of a timing estimate: a run it
      stops would have ended strictly below the incumbent, a run it
      does not stop is the run without one, and [Autotune.fastest]
      picks the uncut strict best, bit for bit. *)

open Tawa_tensor
open Tawa_machine
open Tawa_core
open Tawa_gpusim
module Pool = Tawa_pool.Pool

let small_tiles = { Tawa_frontend.Kernels.block_m = 16; block_n = 16; block_k = 8 }

let compile ?(d = 2) ?(p = 2) ?(coop = 1) ?(persistent = false) ?(coarse = false) k =
  Flow.compile
    ~options:
      { Flow.default_options with aref_depth = d; mma_depth = p; num_consumer_wgs = coop; persistent;
        use_coarse = coarse }
    k

let ws_gemm ?d ?p ?coop ?persistent () =
  compile ?d ?p ?coop ?persistent (Tawa_frontend.Kernels.gemm ~tiles:small_tiles ())

(* ------------------------------------------------------------------ *)
(* 1. Timing-only vs functional: cycles and stall buckets identical    *)
(* ------------------------------------------------------------------ *)

let run ~mode (run_cta : Oracle.runner) ?(pid = [| 0; 0; 0 |])
    ?(grid = [| 2; 2; 1 |]) ?(mk_pop = fun () -> Launch.no_queue) program ~params =
  run_cta
    ~cfg:{ Config.h100 with Config.mode }
    ~program ~params ~num_programs:grid ~pid ~pop_global:(mk_pop ()) ()

(* Everything the timing model reports must match bit for bit; the
   functional payload (tile values, buffer writes) is exactly what
   timing mode is allowed to drop. *)
let check_mode_diff name ?pid ?grid ?mk_pop program ~params =
  let go mode run_cta = run ~mode run_cta ?pid ?grid ?mk_pop program ~params in
  let f_ref = go Config.Functional Oracle.run_cta in
  let t_ref = go Config.Timing Oracle.run_cta in
  let f_dec = go Config.Functional Engine.run_cta in
  let t_dec = go Config.Timing Engine.run_cta in
  Alcotest.(check bool)
    (Printf.sprintf "%s: oracle timing == functional (%.3f vs %.3f cycles)" name
       t_ref.Sim.cycles f_ref.Sim.cycles)
    true (Oracle.outcomes_equal f_ref t_ref);
  Alcotest.(check bool)
    (Printf.sprintf "%s: decoded timing == functional (%.3f vs %.3f cycles)" name
       t_dec.Sim.cycles f_dec.Sim.cycles)
    true (Oracle.outcomes_equal f_dec t_dec);
  Alcotest.(check bool)
    (name ^ ": decoded timing == oracle functional") true
    (Oracle.outcomes_equal f_ref t_dec)

let gemm_buffers ~m ~n ~kk =
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:3 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:4 [| kk; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor c; Sim.Rint m; Sim.Rint n; Sim.Rint kk ]

let test_mode_diff_gemm () =
  let params = gemm_buffers ~m:32 ~n:32 ~kk:16 in
  check_mode_diff "ws gemm" (ws_gemm ()).Flow.program ~params;
  check_mode_diff "ws gemm boundary cta" ~pid:[| 1; 1; 0 |] (ws_gemm ()).Flow.program
    ~params;
  check_mode_diff "deep gemm" (ws_gemm ~d:3 ~p:2 ()).Flow.program ~params;
  check_mode_diff "coop gemm" (ws_gemm ~coop:2 ()).Flow.program ~params

let test_mode_diff_baseline () =
  let compiled =
    Flow.compile
      ~options:{ Flow.default_options with strategy = Flow.Sw_pipelined 3; aref_depth = 3 }
      (Tawa_frontend.Kernels.gemm ~tiles:small_tiles ())
  in
  check_mode_diff "sw-pipelined gemm" compiled.Flow.program
    ~params:(gemm_buffers ~m:32 ~n:32 ~kk:16)

let test_mode_diff_persistent () =
  check_mode_diff "persistent gemm"
    ~mk_pop:(fun () -> Launch.queue_of_list [ 0; 1; 2; 3 ])
    (ws_gemm ~persistent:true ()).Flow.program
    ~params:(gemm_buffers ~m:32 ~n:32 ~kk:16)

let test_mode_diff_attention () =
  let l = 32 and d = 8 in
  let compiled =
    compile ~d:2 ~p:1 ~coarse:true
      (Tawa_frontend.Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:d ())
  in
  let q = Tensor.random ~dtype:Dtype.F16 ~seed:11 [| l; d |] in
  let kt = Tensor.random ~dtype:Dtype.F16 ~seed:12 [| l; d |] in
  let v = Tensor.random ~dtype:Dtype.F16 ~seed:13 [| l; d |] in
  let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  check_mode_diff "coarse attention" ~grid:[| 2; 1; 1 |] compiled.Flow.program
    ~params:[ Sim.Rtensor q; Sim.Rtensor kt; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]

(* ------------------------------------------------------------------ *)
(* 2. Decode-cache key shape and eviction                              *)
(* ------------------------------------------------------------------ *)

let test_cache_key_shape () =
  let p = (ws_gemm ()).Flow.program in
  let timing = Config.h100 in
  let functional = { Config.h100 with Config.mode = Config.Functional } in
  let k_tim = Engine.cache_key timing p in
  let k_fun = Engine.cache_key functional p in
  Alcotest.(check bool) "functional and timing keys differ" true (k_tim <> k_fun);
  let contains hay needle =
    Astring.String.find_sub ~sub:needle hay <> None
  in
  Alcotest.(check bool) "timing key names its mode" true (contains k_tim "timing");
  Alcotest.(check bool) "functional key names its mode" true
    (contains k_fun "functional");
  (* Cost-model fields are part of the key. *)
  let slow = { timing with Config.scalar_cycles = timing.Config.scalar_cycles +. 1.0 } in
  Alcotest.(check bool) "cost-model change changes the key" true
    (Engine.cache_key slow p <> k_tim)

let test_cache_eviction_new_keys () =
  (* A tiny cache filled through the new key shape: the third distinct
     (mode x cost-model) key must evict, and evicted entries miss
     again. *)
  let p = (ws_gemm ()).Flow.program in
  let timing = Config.h100 in
  let keys =
    [ Engine.cache_key timing p;
      Engine.cache_key { timing with Config.mode = Config.Functional } p;
      Engine.cache_key
        { timing with Config.scalar_cycles = timing.Config.scalar_cycles +. 1.0 }
        p ]
  in
  Alcotest.(check int) "three distinct keys" 3
    (List.length (List.sort_uniq compare keys));
  let c : int Progcache.t = Progcache.create ~max_entries:2 () in
  List.iteri (fun i k -> ignore (Progcache.find_or_add c ~key:k (fun () -> i))) keys;
  let s = Progcache.stats c in
  Alcotest.(check int) "three misses" 3 s.Progcache.misses;
  Alcotest.(check bool) "eviction occurred" true (s.Progcache.evictions > 0);
  ignore (Progcache.find_or_add c ~key:(List.hd keys) (fun () -> 9));
  Alcotest.(check int) "evicted key misses again" 4 (Progcache.stats c).Progcache.misses

let test_decode_cache_mode_entries () =
  (* Engine.prepare populates one entry per mode for the same program. *)
  Engine.clear_decode_cache ();
  let p = (ws_gemm ()).Flow.program in
  let s0 = Engine.decode_cache_stats () in
  ignore (Engine.prepare ~cfg:Config.h100 p);
  ignore (Engine.prepare ~cfg:{ Config.h100 with Config.mode = Config.Functional } p);
  let s1 = Engine.decode_cache_stats () in
  Alcotest.(check int) "two mode entries = two misses" 2
    (s1.Progcache.misses - s0.Progcache.misses);
  ignore (Engine.prepare ~cfg:Config.h100 p);
  ignore (Engine.prepare ~cfg:{ Config.h100 with Config.mode = Config.Functional } p);
  let s2 = Engine.decode_cache_stats () in
  Alcotest.(check int) "repeat prepares hit" 2 (s2.Progcache.hits - s1.Progcache.hits);
  Alcotest.(check int) "no further misses" 0 (s2.Progcache.misses - s1.Progcache.misses)

(* A program and a second, separate code generation of the same
   transformed kernel: equal contents in distinct values. *)
let program_twins () =
  let c = ws_gemm () in
  (c.Flow.program, Codegen.lower c.Flow.transformed)

(* The key digests program contents, memoized per program value, and
   config contents: equal contents share a decode and any difference
   misses, whichever value carries it. *)
let test_decode_key_contents () =
  let p, twin = program_twins () in
  Alcotest.(check bool) "compiled twice: equal, distinct values" true (p = twin && p != twin);
  Engine.clear_decode_cache ();
  let misses () = (Engine.decode_cache_stats ()).Progcache.misses in
  let d = Engine.prepare ~cfg:Config.h100 p in
  Alcotest.(check bool) "equal programs share one decode" true
    (Engine.prepare ~cfg:Config.h100 twin == d);
  Alcotest.(check int) "one decode" 1 (misses ());
  ignore (Engine.prepare ~cfg:Config.h100 { p with Isa.prov = Isa.no_prov });
  Alcotest.(check int) "a provenance copy misses" 2 (misses ());
  let s0 = List.hd p.Isa.streams in
  let instrs = Array.copy s0.Isa.instrs in
  instrs.(0) <- (if instrs.(0) = Isa.Nop then Isa.Wgmma_commit else Isa.Nop);
  ignore
    (Engine.prepare ~cfg:Config.h100
       { p with Isa.streams = { s0 with Isa.instrs } :: List.tl p.Isa.streams });
  Alcotest.(check int) "one changed instruction misses" 3 (misses ());
  ignore
    (Engine.prepare
       ~cfg:{ Config.h100 with Config.tma_latency = Config.h100.Config.tma_latency +. 1.0 }
       p);
  Alcotest.(check int) "one changed cost field misses" 4 (misses ());
  ignore (Engine.prepare ~cfg:Config.h100 p);
  Alcotest.(check int) "the original still hits" 4 (misses ())

(* Run [f] with the pool's width pinned to [d]. *)
let with_domains d f =
  Pool.set_default_domains (Some d);
  Fun.protect ~finally:(fun () -> Pool.set_default_domains None) f

(* Two domains key a program value whose fingerprint is not memoized
   yet at once: both reach the one decode its contents already have. *)
let test_decode_key_domains () =
  let p, twin = program_twins () in
  Engine.clear_decode_cache ();
  let d = Engine.prepare ~cfg:Config.h100 p in
  let got =
    with_domains 2 (fun () ->
        Pool.map (fun q -> Engine.prepare ~cfg:Config.h100 q) (Array.make 8 twin))
  in
  Alcotest.(check bool) "every domain gets the single decode" true
    (Array.for_all (fun e -> e == d) got);
  Alcotest.(check int) "no further decode" 1 (Engine.decode_cache_stats ()).Progcache.misses

(* ------------------------------------------------------------------ *)
(* 3. Grouped launches                                                 *)
(* ------------------------------------------------------------------ *)

(* Two heterogeneous GEMM items over a 3-SM config whose share mixes
   units of both. *)
let grouped_items ?(functional = false) () =
  List.map
    (fun (m, n) ->
      let compiled = ws_gemm ~persistent:false () in
      let s = { Workloads.m; n; k = 16; dtype = Dtype.F16 } in
      let grid, params = Workloads.gemm_launch s ~tiles:small_tiles in
      (* Timing runs take the launch helper's unbound pointers (as the
         bench does); functional runs need real buffers. *)
      let params =
        if functional then gemm_buffers ~m ~n ~kk:16 else params
      in
      (compiled.Flow.program, params, grid, Workloads.gemm_flops s))
    [ (32, 32); (48, 32) ]

let cfg3 = { Config.h100 with Config.num_sms = 3 }

let test_grouped_functional_equals_timing () =
  let t_fun =
    Launch.estimate_grouped ~cfg:{ cfg3 with mode = Functional }
      (grouped_items ~functional:true ())
  in
  let t_tim = Launch.estimate_grouped ~cfg:cfg3 (grouped_items ()) in
  Alcotest.(check (float 0.0)) "functional cycles == timing cycles" t_fun.Launch.cycles
    t_tim.Launch.cycles

(* A CTA whose instruction path depends on its id: CTA 0 skips the
   ALU op, every other CTA executes it, so no one CTA's timing stands
   for the rest of its item. *)
let pid_branch_program =
  {
    Isa.name = "pid_branch";
    param_tys = [];
    streams =
      [ { Isa.role = Tawa_ir.Op.Consumer; coop = 1;
          instrs =
            [| Isa.Pid { dst = 0; axis = 0 };
               Isa.Brz { cond = Isa.Reg 0; target = 3 };
               Isa.Alu { op = Tawa_ir.Op.Add; dst = 1; a = Isa.Imm 1; b = Isa.Imm 2 };
               Isa.Exit |] } ];
    allocs = [];
    num_mbarriers = 0;
    mbar_arrive_counts = [||];
    mbar_resettable = [||];
    num_rings = 0;
    persistent = false;
    grid_axes = 3;
    prov = Isa.no_prov;
  }

(* A GEMM item (a 2x2 grid) and the id-branching item (4 CTAs) on 2
   SMs: the share is units 0, 2, 4, 6 — two GEMM tiles, then CTAs 0
   and 2 of the branching program, which differ. *)
let mixed_items () = [ List.hd (grouped_items ()); (pid_branch_program, [], (4, 1, 1), 1.0) ]
let cfg2 = { Config.h100 with Config.num_sms = 2 }

let test_grouped_domains_bit_identical () =
  let items = mixed_items () in
  let t1 = with_domains 1 (fun () -> Launch.estimate_grouped ~cfg:cfg2 items) in
  let t2 = with_domains 2 (fun () -> Launch.estimate_grouped ~cfg:cfg2 items) in
  Alcotest.(check (float 0.0)) "cycles bit-identical" t1.Launch.cycles t2.Launch.cycles;
  Alcotest.(check (float 0.0)) "tc_busy bit-identical" t1.Launch.stats.Sim.tc_busy
    t2.Launch.stats.Sim.tc_busy

(* Items of 4, 1 and 5 CTAs, three distinct programs, on 3 SMs: the
   share is units 0, 3, 6 and 9 — two tiles of the first item, none of
   the middle one, and CTAs 1 and 4 of the last. *)
let uneven_items () =
  let gemm ?d ?p (m, n) =
    let s = { Workloads.m; n; k = 16; dtype = Dtype.F16 } in
    let grid, params = Workloads.gemm_launch s ~tiles:small_tiles in
    ((ws_gemm ?d ?p ()).Flow.program, params, grid, Workloads.gemm_flops s)
  in
  [ gemm (32, 32); (pid_branch_program, [], (1, 1, 1), 1.0); gemm ~d:3 ~p:2 (80, 16) ]

(* The documented sum: launch overhead, plus every unit of one SM's
   share (every num_sms-th unit of the full list, in item then z/y/x
   order) run as its own CTA, plus one queue pop per unit. *)
let reference_total cfg items =
  let units =
    List.concat_map
      (fun (program, params, (gx, gy, gz), _) ->
        List.init (gx * gy * gz) (fun i ->
            (program, params, [| gx; gy; gz |], [| i mod gx; i / gx mod gy; i / (gx * gy) |])))
      items
  in
  let share = List.filteri (fun i _ -> i mod cfg.Config.num_sms = 0) units in
  let sum =
    List.fold_left
      (fun acc (program, params, num_programs, pid) ->
        acc
        +. (Engine.run_cta ~cfg ~program ~params ~num_programs ~pid
              ~pop_global:Launch.no_queue ())
             .Sim.cycles)
      0.0 share
  in
  cfg.Config.launch_overhead_cycles +. sum
  +. (Float.of_int (List.length share) *. cfg.Config.workq_pop_cycles)

let test_grouped_total () =
  let items = mixed_items () in
  Alcotest.(check (float 0.0)) "total = overhead + share cycles + pops"
    (reference_total cfg2 items) (Launch.estimate_grouped ~cfg:cfg2 items).Launch.cycles;
  let items = uneven_items () in
  Engine.clear_decode_cache ();
  let got = (Launch.estimate_grouped ~cfg:cfg3 items).Launch.cycles in
  let s = Engine.decode_cache_stats () in
  Alcotest.(check (pair int int)) "uneven items: one decode per item, the middle one too"
    (3, 0) (s.Progcache.misses, s.Progcache.hits);
  Alcotest.(check (float 0.0)) "uneven items: total = the filtered sum"
    (reference_total cfg3 items) got

let test_grouped_rates () =
  (* Rates come from the whole wave: the flops of every item over the
     total cycles, and busy time over the same total. *)
  let items = mixed_items () in
  let t = Launch.estimate_grouped ~cfg:cfg2 items in
  let flops = List.fold_left (fun acc (_, _, _, f) -> acc +. f) 0.0 items in
  Alcotest.(check (float 0.0)) "tflops of the summed flops"
    (Config.tflops cfg2 ~flops ~cycles:t.Launch.cycles) t.Launch.tflops;
  Alcotest.(check (float 0.0)) "seconds of the cycles"
    (Config.cycles_to_seconds cfg2 t.Launch.cycles) t.Launch.seconds;
  Alcotest.(check (float 0.0)) "tc utilization over the total"
    (t.Launch.stats.Sim.tc_busy /. t.Launch.cycles) t.Launch.tc_utilization;
  Alcotest.(check bool) "no representative profile" true (t.Launch.profile = None)

let test_grouped_decodes_per_item () =
  (* Each item's program is prepared once, before the fan-out; a second
     estimate reuses both decodes. *)
  let items = mixed_items () in
  Engine.clear_decode_cache ();
  ignore (Launch.estimate_grouped ~cfg:cfg2 items);
  let s1 = Engine.decode_cache_stats () in
  Alcotest.(check int) "one decode per item" 2 s1.Progcache.misses;
  Alcotest.(check int) "no per-unit lookups" 0 s1.Progcache.hits;
  ignore (Launch.estimate_grouped ~cfg:cfg2 items);
  let s2 = Engine.decode_cache_stats () in
  Alcotest.(check int) "no further decodes" 0 (s2.Progcache.misses - s1.Progcache.misses);
  Alcotest.(check int) "one hit per item" 2 (s2.Progcache.hits - s1.Progcache.hits)

let test_grouped_rejects_persistent () =
  let s = { Workloads.m = 32; n = 32; k = 16; dtype = Dtype.F16 } in
  let grid, params = Workloads.gemm_launch s ~tiles:small_tiles in
  let item =
    ((ws_gemm ~persistent:true ()).Flow.program, params, grid, Workloads.gemm_flops s)
  in
  Alcotest.(check bool) "persistent item raises Invalid_argument" true
    (match Launch.estimate_grouped ~cfg:cfg2 [ item ] with
    | _ -> false
    | exception Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* 4. The incumbent cut-off                                            *)
(* ------------------------------------------------------------------ *)

let paper_sweep = Autotune.gemm_candidates ~dtype:Dtype.F16 ()

(* [c]'s timing against [incumbent], or [None] when the bound cut it. *)
let timed ?incumbent family c =
  match Autotune.time ?incumbent ~cfg:Config.h100 family c with
  | t -> Some t
  | exception Engine.Cut -> None

(* Bit for bit, every float included. *)
let same_timing (a : Launch.timing) (b : Launch.timing) =
  Marshal.to_string a [ Marshal.No_sharing ] = Marshal.to_string b [ Marshal.No_sharing ]

let retired f =
  let i0 = Engine.instructions_retired () in
  let r = f () in
  (r, Engine.instructions_retired () - i0)

(* Every paper-sweep candidate at a small shape, uncut (which keeps
   each point's deadlock and step-budget checks in the suite), then
   against incumbents at, just below and just above its own TFLOPS and
   at the sweep's best. The final clock is among those checked, so an
   incumbent above the run's TFLOPS always cuts it; a cut run counts
   the instructions it simulated. *)
let test_cut_sound () =
  let family = Autotune.Gemm { Workloads.m = 512; n = 512; k = 256; dtype = Dtype.F16 } in
  let uncut =
    List.map (fun c -> (c, retired (fun () -> Option.get (timed family c)))) paper_sweep
  in
  let best = List.fold_left (fun a (_, (t, _)) -> Float.max a t.Launch.tflops) 0.0 uncut in
  let cuts = ref 0 in
  List.iter
    (fun (c, ((t : Launch.timing), instrs)) ->
      let tf = t.Launch.tflops in
      let check label incumbent ~cut =
        let what = Printf.sprintf "%s, incumbent %s" (Autotune.candidate_to_string c) label in
        match retired (fun () -> timed ~incumbent family c) with
        | Some t', _ ->
          Alcotest.(check bool) (what ^ ": not cut") false cut;
          Alcotest.(check bool) (what ^ ": the uncut run") true (same_timing t t')
        | None, n ->
          incr cuts;
          Alcotest.(check bool) (what ^ ": cut") true cut;
          Alcotest.(check bool) (what ^ ": cut strictly below") true (tf < incumbent);
          Alcotest.(check bool) (what ^ ": simulated instructions counted") true
            (n > 0 && n <= instrs)
      in
      check "at its own" tf ~cut:false;
      check "just below" (Float.pred tf) ~cut:false;
      check "just above" (Float.succ tf) ~cut:true;
      check "the sweep's best" best ~cut:(tf < best))
    uncut;
  Alcotest.(check bool) "some run cut at the sweep's best" true (!cuts > List.length uncut)

(* [fastest] against the uncut strict best of the same candidates. *)
let test_fastest_is_uncut_best () =
  let attn = { Tawa_frontend.Kernels.block_m = 128; block_n = 128; block_k = 128 } in
  let coarse d =
    { (Autotune.candidate attn) with Autotune.aref_depth = d; mma_depth = 1; coarse = true }
  in
  let cut_count () =
    match List.assoc_opt "autotune.cut" (Tawa_obs.Registry.snapshot ()) with
    | Some (Tawa_obs.Registry.Int n) -> n
    | _ -> 0
  in
  List.iter
    (fun (what, family, cands, fewer) ->
      let (c0, t0), uncut =
        retired (fun () ->
            Autotune.strict_best
              (fun (_, t) -> t.Launch.tflops)
              (List.to_seq (List.map (fun c -> (c, Option.get (timed family c))) cands)))
      in
      let cuts = cut_count () in
      let (c1, t1), instrs = retired (fun () -> Autotune.fastest ~cfg:Config.h100 family cands) in
      let bits = Int64.bits_of_float in
      Alcotest.(check string) (what ^ ": winner") (Autotune.candidate_to_string c0)
        (Autotune.candidate_to_string c1);
      Alcotest.(check int64) (what ^ ": tflops bits") (bits t0.Launch.tflops) (bits t1.Launch.tflops);
      Alcotest.(check int64) (what ^ ": cycles bits") (bits t0.Launch.cycles) (bits t1.Launch.cycles);
      Alcotest.(check bool) (what ^ ": at most the uncut instructions") true (instrs <= uncut);
      if fewer then begin
        Alcotest.(check bool) (what ^ ": strictly fewer instructions") true (instrs < uncut);
        Alcotest.(check bool) (what ^ ": autotune.cut counted") true (cut_count () > cuts)
      end)
    [ ("paper sweep, K = 256", Autotune.Gemm (Workloads.paper_gemm 256), paper_sweep, false);
      ("paper sweep, K = 4096", Autotune.Gemm (Workloads.paper_gemm 4096), paper_sweep, true);
      ( "Fig. 12 coarse D in [2; 3; 4]",
        Autotune.Attention (Workloads.paper_mha 16384),
        List.map coarse [ 2; 3; 4 ],
        false ) ]

let suites =
  [ ( "modes.differential",
      [ Alcotest.test_case "gemm variants" `Quick test_mode_diff_gemm;
        Alcotest.test_case "sw-pipelined baseline" `Quick test_mode_diff_baseline;
        Alcotest.test_case "persistent gemm" `Quick test_mode_diff_persistent;
        Alcotest.test_case "coarse attention" `Quick test_mode_diff_attention ] );
    ( "modes.cachekey",
      [ Alcotest.test_case "key shape" `Quick test_cache_key_shape;
        Alcotest.test_case "eviction on new keys" `Quick test_cache_eviction_new_keys;
        Alcotest.test_case "per-mode decode entries" `Quick
          test_decode_cache_mode_entries;
        Alcotest.test_case "key digests contents" `Quick test_decode_key_contents;
        Alcotest.test_case "key from two domains" `Quick test_decode_key_domains ] );
    ( "modes.grouped",
      [ Alcotest.test_case "functional cycles == timing cycles" `Quick
          test_grouped_functional_equals_timing;
        Alcotest.test_case "bit-identical across domain counts" `Quick
          test_grouped_domains_bit_identical;
        Alcotest.test_case "total is the documented sum" `Quick test_grouped_total;
        Alcotest.test_case "rates from the whole wave" `Quick test_grouped_rates;
        Alcotest.test_case "one decode per item" `Quick test_grouped_decodes_per_item;
        Alcotest.test_case "persistent item rejected" `Quick
          test_grouped_rejects_persistent ] );
    ( "modes.cut",
      [ Alcotest.test_case "a cut run ends below the incumbent" `Quick test_cut_sound;
        Alcotest.test_case "fastest is the uncut strict best" `Quick
          test_fastest_is_uncut_best ] );
  ]
