(* Tests for the public API layer: the compile flow, the autotuner and
   its Fig. 11 grid, workload definitions, and report formatting — plus
   the ping-pong protocol of the future-work section. *)

open Tawa_tensor
open Tawa_frontend
open Tawa_core
open Tawa_gpusim
open Tawa_aref

let small_tiles = { Kernels.block_m = 16; block_n = 16; block_k = 8 }

(* A baseline lowering's options; [aref_depth] mirrors the software
   pipeline's depth, as in the bench and the baselines table. *)
let baseline strategy =
  match strategy with
  | Flow.Sw_pipelined stages -> { Flow.default_options with strategy; aref_depth = stages }
  | _ -> { Flow.default_options with strategy }

(* ------------------------------------------------------------------ *)
(* Flow                                                                *)
(* ------------------------------------------------------------------ *)

let test_flow_compile_ws () =
  let c = Flow.compile (Kernels.gemm ~tiles:small_tiles ()) in
  Alcotest.(check bool) "ws" true c.Flow.warp_specialized;
  Alcotest.(check int) "two streams" 2 (List.length c.Flow.program.Tawa_machine.Isa.streams);
  Alcotest.(check bool) "ir dump mentions aref" true
    (Astring.String.is_infix ~affix:"tawa.aref_create" (Flow.dump_ir c));
  Alcotest.(check bool) "asm dump mentions wgmma" true
    (Astring.String.is_infix ~affix:"wgmma" (Flow.dump_asm c))

let test_flow_compile_sw () =
  let c =
    Flow.compile ~options:(baseline (Flow.Sw_pipelined 3)) (Kernels.gemm ~tiles:small_tiles ())
  in
  Alcotest.(check bool) "not ws" false c.Flow.warp_specialized;
  Alcotest.(check int) "one stream" 1 (List.length c.Flow.program.Tawa_machine.Isa.streams);
  Alcotest.(check bool) "cp.async asm" true
    (Astring.String.is_infix ~affix:"cp.async" (Flow.dump_asm c))

let test_flow_naive_loads () =
  let c = Flow.compile ~options:(baseline Flow.Naive) (Kernels.gemm ~tiles:small_tiles ()) in
  Alcotest.(check bool) "ld.global asm" true
    (Astring.String.is_infix ~affix:"ld.global" (Flow.dump_asm c))

let test_flow_attention_coarse () =
  let c =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1; persistent = false;
          use_coarse = true }
      (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ())
  in
  Alcotest.(check bool) "coarse applied" true c.Flow.coarse

(* A kernel with no TMA-fed loop has nothing to prefetch: the software-
   pipelined build lowers it unpipelined, to the program the
   synchronous build gets (bin/fixtures/no_loop.tw, a tile copy). *)
let test_flow_sw_without_loop () =
  let k = List.hd (Elaborate.compile_file (Paths.fixture "no_loop.tw")) in
  let sw = Flow.compile ~options:(baseline (Flow.Sw_pipelined 3)) k in
  Alcotest.(check bool) "not ws" false sw.Flow.warp_specialized;
  Alcotest.(check bool) "the synchronous build's program" true
    (sw.Flow.program = (Flow.compile ~options:(baseline Flow.Sync_tma) k).Flow.program)

(* All compile paths produce functionally identical GEMMs. *)
let test_flow_all_paths_agree () =
  let kernel = Kernels.gemm ~tiles:small_tiles () in
  let m = 32 and n = 32 and kk = 24 in
  let run (c : Flow.compiled) =
    let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| m; kk |] in
    let b = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| kk; n |] in
    let cbuf = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
    ignore
      (Launch.run_grid_functional ~cfg:Config.functional_test c.Flow.program
         ~params:
           [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor cbuf; Sim.Rint m; Sim.Rint n;
             Sim.Rint kk ]
         ~grid:(m / 16, n / 16, 1));
    cbuf
  in
  let reference = run (Flow.compile kernel) in
  List.iter
    (fun (label, c) ->
      Alcotest.(check bool) (label ^ " agrees") true
        (Tensor.max_abs_diff reference (run c) = 0.0))
    [ ("sw-pipelined", Flow.compile ~options:(baseline (Flow.Sw_pipelined 2)) kernel);
      ("naive", Flow.compile ~options:(baseline Flow.Naive) kernel);
      ("sync-tma", Flow.compile ~options:(baseline Flow.Sync_tma) kernel);
      ( "persistent+coop",
        Flow.compile
          ~options:
            { Flow.default_options with aref_depth = 3; mma_depth = 2; num_consumer_wgs = 2; persistent = true;
              use_coarse = false }
          kernel ) ]

(* ------------------------------------------------------------------ *)
(* Compile cache                                                       *)
(* ------------------------------------------------------------------ *)

let default_opts = Flow.default_options

(* Two separately-built gemm kernels are structurally identical but
   carry different global SSA value ids; the content fingerprint must
   erase that difference so the second compile hits. *)
let test_cache_hit_on_identical_kernel () =
  Flow.clear_cache ();
  let c1 = Flow.compile (Kernels.gemm ~tiles:small_tiles ()) in
  let c2 = Flow.compile (Kernels.gemm ~tiles:small_tiles ()) in
  let s = Flow.cache_stats () in
  Alcotest.(check int) "one miss" 1 s.Tawa_machine.Progcache.misses;
  Alcotest.(check int) "one hit" 1 s.Tawa_machine.Progcache.hits;
  (* A hit shares the compiled artifact, it doesn't recompile. *)
  Alcotest.(check bool) "same program" true (c1.Flow.program == c2.Flow.program);
  Alcotest.(check bool) "same transformed IR" true
    (c1.Flow.transformed == c2.Flow.transformed)

let test_cache_miss_on_option_change () =
  Flow.clear_cache ();
  let kernel () = Kernels.gemm ~tiles:small_tiles () in
  ignore (Flow.compile ~options:default_opts (kernel ()));
  (* Every field of the options record is part of the key. *)
  List.iter
    (fun options -> ignore (Flow.compile ~options (kernel ())))
    [ { default_opts with Flow.aref_depth = 3 };
      { default_opts with Flow.mma_depth = 1 };
      { default_opts with Flow.num_consumer_wgs = 2 };
      { default_opts with Flow.persistent = true } ];
  let s = Flow.cache_stats () in
  Alcotest.(check int) "five distinct configs miss" 5 s.Tawa_machine.Progcache.misses;
  Alcotest.(check int) "no hits" 0 s.Tawa_machine.Progcache.hits

let test_cache_miss_on_kernel_change () =
  Flow.clear_cache ();
  ignore (Flow.compile (Kernels.gemm ~tiles:small_tiles ()));
  (* A different tile attribute changes the printed kernel. *)
  ignore
    (Flow.compile
       (Kernels.gemm ~tiles:{ small_tiles with Kernels.block_k = 16 } ()));
  (* A different dtype changes parameter types. *)
  ignore (Flow.compile (Kernels.gemm ~tiles:small_tiles ~dtype:Dtype.F8E4M3 ()));
  (* A different strategy never collides, even on the same kernel. *)
  ignore (Flow.compile ~options:(baseline Flow.Naive) (Kernels.gemm ~tiles:small_tiles ()));
  let s = Flow.cache_stats () in
  Alcotest.(check int) "all four miss" 4 s.Tawa_machine.Progcache.misses;
  Alcotest.(check int) "no hits" 0 s.Tawa_machine.Progcache.hits

let test_cache_hit_on_baselines () =
  (* The baseline strategies share the one compile entry point, so a
     repeated baseline compile is a hit that shares the program. *)
  Flow.clear_cache ();
  let strategies = [ Flow.Sw_pipelined 3; Flow.Naive; Flow.Sync_tma ] in
  let compile strategy =
    (Flow.compile ~options:(baseline strategy) (Kernels.gemm ~tiles:small_tiles ())).Flow.program
  in
  let first = List.map compile strategies in
  let again = List.map compile strategies in
  let s = Flow.cache_stats () in
  Alcotest.(check int) "one miss per strategy" 3 s.Tawa_machine.Progcache.misses;
  Alcotest.(check int) "one hit per strategy" 3 s.Tawa_machine.Progcache.hits;
  Alcotest.(check bool) "hits share the program" true (List.for_all2 ( == ) first again)

let test_cached_program_still_correct () =
  (* The shared artifact of a cache hit simulates identically to the
     miss that produced it. *)
  Flow.clear_cache ();
  let run () =
    let c = Flow.compile (Kernels.gemm ~tiles:small_tiles ()) in
    let m = 16 and n = 16 and kk = 16 in
    let a = Tensor.random ~dtype:Dtype.F16 ~seed:5 [| m; kk |] in
    let b = Tensor.random ~dtype:Dtype.F16 ~seed:6 [| kk; n |] in
    let out = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
    ignore
      (Launch.run_grid_functional ~cfg:Config.functional_test c.Flow.program
         ~params:
           [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out; Sim.Rint m; Sim.Rint n;
             Sim.Rint kk ]
         ~grid:(1, 1, 1));
    out
  in
  let miss = run () in
  let hit = run () in
  Alcotest.(check int) "second run hit" 1
    (Flow.cache_stats ()).Tawa_machine.Progcache.hits;
  Alcotest.(check bool) "hit output identical" true (Tensor.equal miss hit)

let compile_source src =
  match Elaborate.compile_string src with
  | [ k ] -> Flow.compile k
  | ks -> Alcotest.failf "expected one kernel, got %d" (List.length ks)

(* attention.tw, and the same source with its scale constant cut to the
   six significant digits [%g] prints: a key built from the printed
   kernel conflated the two and served the first program for the
   second. *)
let test_cache_miss_on_float_change () =
  Flow.clear_cache ();
  let src =
    In_channel.with_open_text (Filename.concat Paths.examples_dir "attention.tw")
      In_channel.input_all
  in
  let near =
    match Astring.String.cut ~sep:"0.35355339059" src with
    | Some (before, after) -> before ^ "0.353553" ^ after
    | None -> Alcotest.fail "attention.tw lacks its scale constant"
  in
  let exact = compile_source src in
  let rounded = compile_source near in
  Alcotest.(check int) "both miss" 2 (Flow.cache_stats ()).Tawa_machine.Progcache.misses;
  Alcotest.(check bool) "distinct programs" true
    (Tawa_machine.Progcache.program_fingerprint exact.Flow.program
    <> Tawa_machine.Progcache.program_fingerprint rounded.Flow.program)

(* ------------------------------------------------------------------ *)
(* Pass-prefix sharing                                                 *)
(* ------------------------------------------------------------------ *)

module Manager = Tawa_passes.Manager

(* The two autotune spaces the prefix tests compile: GEMM 256³ f16 and
   causal attention at L = 1024. *)
let gemm_family = Autotune.Gemm { Workloads.m = 256; n = 256; k = 256; dtype = Dtype.F16 }
let attention_family = Autotune.Attention (Workloads.paper_mha ~causal:true 1024)

(* One candidate's transformed kernel's fingerprint and its program,
   provenance masked: the "tawa.src" stamps and [prov] hold op ids,
   which differ between any two compiles. *)
let candidate_build fam (c : Autotune.candidate) =
  let options = Autotune.options_of c and kernel = Autotune.kernel_of fam c in
  let compiled = Flow.compile ~options kernel in
  let transformed = Tawa_ir.Kernel.clone compiled.Flow.transformed in
  Tawa_ir.Op.iter_region
    (fun op -> op.Tawa_ir.Op.attrs <- List.remove_assoc "tawa.src" op.Tawa_ir.Op.attrs)
    transformed.Tawa_ir.Kernel.body;
  ( Tawa_machine.Progcache.kernel_fingerprint transformed,
    { compiled.Flow.program with Tawa_machine.Isa.prov = Tawa_machine.Isa.no_prov } )

(* Compiling a whole space in order, so each candidate reuses the pass
   prefixes of earlier ones, gives every candidate the transformed
   kernel and the program of a compile from cold caches. *)
let test_prefix_sharing_invisible () =
  List.iter
    (fun fam ->
      let cands = Autotune.space fam in
      Flow.clear_cache ();
      let shared = List.map (candidate_build fam) cands in
      List.iteri
        (fun i (c, (kernel, program)) ->
          Flow.clear_cache ();
          let cold_kernel, cold_program = candidate_build fam c in
          let what = Printf.sprintf "%s candidate %d" (Autotune.family_tag fam) i in
          Alcotest.(check string) (what ^ " kernel") cold_kernel kernel;
          Alcotest.(check bool) (what ^ " program") true (program = cold_program))
        (List.combine cands shared))
    [ gemm_family; attention_family ]

(* Pass executions in one cold search: canonicalize once per distinct
   kernel, warp-specialize once per (kernel, D, coop), the coarse
   pipeline once per use_coarse on top, the fine pipeline once per P
   where it runs, and one verify per kernel a pass produced, the GEMM
   space's two software-pipelined builds included. *)
let test_prefix_pass_counts () =
  let passes = [ "canonicalize"; "warp-specialize"; "coarse-pipeline"; "fine-pipeline"; "verify" ] in
  let calls () =
    let snap = Tawa_obs.Registry.snapshot () in
    List.map
      (fun p ->
        match List.assoc_opt ("passes." ^ p ^ ".calls") snap with
        | Some (Tawa_obs.Registry.Int n) -> n
        | _ -> 0)
      passes
  in
  List.iter
    (fun (fam, want) ->
      Flow.clear_cache ();
      let before = calls () in
      ignore (Autotune.search fam);
      Alcotest.(check (list int))
        (Autotune.family_tag fam ^ " " ^ String.concat "/" passes)
        want
        (List.map2 ( - ) (calls ()) before))
    [ (gemm_family, [ 4; 28; 28; 63; 125 ]); (attention_family, [ 4; 12; 24; 32; 72 ]) ]

(* The launch attributes go on a fresh record: a later compile that
   shares every pass with an earlier one leaves the earlier result as
   it was. *)
let test_prefix_fresh_attrs () =
  Flow.clear_cache ();
  let kernel = Kernels.gemm ~tiles:small_tiles () in
  let compile persistent =
    (Manager.compile ~options:{ Manager.default_options with persistent } kernel).Manager.kernel
  in
  let persistent k = List.assoc_opt "persistent" k.Tawa_ir.Kernel.attrs in
  let first = compile true in
  let fp = Tawa_machine.Progcache.kernel_fingerprint first in
  let second = compile false in
  Alcotest.(check bool) "passes shared" true (first.Tawa_ir.Kernel.body == second.Tawa_ir.Kernel.body);
  Alcotest.(check bool) "first stays persistent" true
    (persistent first = Some (Tawa_ir.Op.Attr_bool true));
  Alcotest.(check bool) "second is not" true (persistent second = None);
  Alcotest.(check string) "first fingerprint unchanged" fp
    (Tawa_machine.Progcache.kernel_fingerprint first)

(* ------------------------------------------------------------------ *)
(* Kernel fingerprint                                                  *)
(* ------------------------------------------------------------------ *)

let fingerprint = Tawa_machine.Progcache.kernel_fingerprint

let strategies =
  [ Flow.default_options; baseline (Flow.Sw_pipelined 3); baseline Flow.Naive ]

(* Named kernels, each with its builder. A frontend kernel is rebuilt
   by calling the builder again (new value ids). A compiled kernel
   carries provenance stamps of global op ids ([tawa.src]), so a
   recompile is a different kernel; it is only cloned. *)
type fp_case = {
  name : string;
  kernel : Tawa_ir.Kernel.t;
  rebuild : (unit -> Tawa_ir.Kernel.t) option;
}

(* The frontend kernel of [build], then what each of [options] compiles
   it to ([Flow.build_entry] bypasses the compile cache). *)
let cases name build options =
  let compiled o =
    { name = name ^ " " ^ Flow.options_key o; rebuild = None;
      kernel = (Flow.build_entry o (build ())).Flow.e_transformed }
  in
  { name; kernel = build (); rebuild = Some build } :: List.map compiled options

let example_cases () =
  Sys.readdir Paths.examples_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".tw")
  |> List.sort compare
  |> List.concat_map (fun f ->
         let build () =
           match Elaborate.compile_file (Filename.concat Paths.examples_dir f) with
           | [ k ] -> k
           | ks -> Alcotest.failf "%s: expected one kernel, got %d" f (List.length ks)
         in
         cases f build strategies)

let autotune_cases () =
  let gemm = Autotune.Gemm { Workloads.m = 1024; n = 1024; k = 512; dtype = Dtype.F16 } in
  let mha =
    Autotune.Attention
      { Workloads.batch = 1; heads = 1; len = 1024; head_dim = 64; causal = false;
        mha_dtype = Dtype.F16 }
  in
  List.concat_map
    (fun fam ->
      List.concat_map
        (fun c ->
          cases (Autotune.candidate_to_string c)
            (fun () -> Autotune.kernel_of fam c)
            [ Autotune.options_of c ])
        (Autotune.space fam))
    [ gemm; mha ]

(* Rebuilding or cloning a kernel keeps its fingerprint, and kernels
   whose canonical printed forms differ never share one. *)
let check_against_printed cases =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun c ->
      let fp = fingerprint c.kernel in
      let same what k =
        if fingerprint k <> fp then Alcotest.failf "%s: %s changes the fingerprint" c.name what
      in
      same "cloning" (Tawa_ir.Kernel.clone c.kernel);
      Option.iter (fun build -> same "rebuilding" (build ())) c.rebuild;
      let printed = Printed_fingerprint.canonical c.kernel in
      match Hashtbl.find_opt seen fp with
      | Some (other, p) when p <> printed ->
        Alcotest.failf "%s and %s print differently but share %s" c.name other fp
      | _ -> Hashtbl.replace seen fp (c.name, printed))
    cases

let test_fingerprint_examples () = check_against_printed (example_cases ())
let test_fingerprint_autotune () = check_against_printed (autotune_cases ())

(* Tunestore keys embed this digest and persist across processes: a
   change of encoding must be a deliberate update of this pin. *)
let test_fingerprint_pinned () =
  Alcotest.(check string) "Kernels.gemm ()" "e55aeb7851042abb761d5e8669547b13"
    (fingerprint (Kernels.gemm ()))

let prop_fingerprint_fuzz =
  QCheck.Test.make ~name:"fuzz kernels: fingerprint refines the printed form" ~count:30
    QCheck.(pair Test_fuzz.arb_spec Test_fuzz.arb_spec)
    (fun (s1, s2) ->
      let case s = cases "fuzz" (fun () -> Test_fuzz.build_kernel s) [ Flow.default_options ] in
      check_against_printed (case s1 @ case s2);
      true)

(* ------------------------------------------------------------------ *)
(* Autotune                                                            *)
(* ------------------------------------------------------------------ *)

let test_candidates_respect_protocol () =
  let cands = Autotune.gemm_candidates ~dtype:Dtype.F16 () in
  Alcotest.(check bool) "nonempty" true (cands <> []);
  List.iter
    (fun (c : Autotune.candidate) ->
      Alcotest.(check bool) "D >= P" true (c.Autotune.aref_depth >= c.Autotune.mma_depth);
      (* 128x256 tiles require two cooperating consumer WGs. *)
      if c.Autotune.tiles.Kernels.block_n = 256 then
        Alcotest.(check int) "large tile coop" 2 c.Autotune.coop)
    cands

(* The paper sweep, pinned against the order the pre-axes sweep
   enumerated (tile, D, P, persistence): ties in the sweep resolve
   toward the earlier candidate, so the order decides winners. *)
let test_paper_sweep_order () =
  let tiles128 = { Kernels.block_m = 128; block_n = 128; block_k = 64 } in
  let tiles256 = { Kernels.block_m = 128; block_n = 256; block_k = 64 } in
  let want =
    List.concat_map
      (fun (tiles, coop) ->
        List.concat_map
          (fun d ->
            List.concat_map
              (fun p ->
                if p > d then []
                else
                  List.map
                    (fun persistent ->
                      { Autotune.tiles; aref_depth = d; mma_depth = p; coop; persistent;
                        coarse = false; strategy = Flow.Warp_specialized })
                    [ false; true ])
              [ 1; 2; 3 ])
          [ 1; 2; 3; 4 ])
      [ (tiles128, 1); (tiles256, 2) ]
  in
  Alcotest.(check int) "36 candidates" 36 (List.length want);
  List.iter
    (fun dtype ->
      Alcotest.(check (list string))
        (Dtype.to_string dtype ^ " sweep")
        (List.map Autotune.candidate_to_string want)
        (List.map Autotune.candidate_to_string (Autotune.gemm_candidates ~dtype ())))
    [ Dtype.F16; Dtype.F8E4M3 ]

let test_tune_picks_feasible_best () =
  let shape = { Workloads.m = 2048; n = 2048; k = 4096; dtype = Dtype.F16 } in
  let _, best = Autotune.tune_gemm shape in
  Alcotest.(check bool) "positive tflops" true (best.Launch.tflops > 100.0);
  (* The best must be at least as good as a deliberately weak config. *)
  let weak =
    Autotune.measure ~cfg:Config.h100 (Autotune.Gemm shape)
      { Autotune.tiles = small_tiles; aref_depth = 1; mma_depth = 1; coop = 1;
        persistent = false; coarse = false; strategy = Flow.Warp_specialized }
  in
  Alcotest.(check bool) "beats weak config" true
    (best.Launch.tflops >= weak.Autotune.tflops)

(* The holes of the (D, P) grid are the protocol rule P > D, at the
   tests' small tiles and at Fig. 11's grid. *)
let test_dp_grid_holes () =
  let holes_at_p_gt_d label grid =
    List.iteri
      (fun di row ->
        List.iteri
          (fun pi cell ->
            Alcotest.(check bool)
              (Printf.sprintf "%s D=%d P=%d" label (di + 1) (pi + 1))
              (pi > di) (cell = None))
          row)
      grid
  in
  let shape = Workloads.paper_gemm 4096 in
  let grid =
    Autotune.dp_grid ~tiles:small_tiles ~coop:1 ~persistent:false shape ~max_d:3 ~max_p:3
  in
  holes_at_p_gt_d "16x16x8" grid;
  holes_at_p_gt_d "fig11"
    (Autotune.dp_grid ~tiles:{ Kernels.block_m = 128; block_n = 128; block_k = 64 }
       ~coop:1 ~persistent:false (Workloads.paper_gemm 256) ~max_d:4 ~max_p:3);
  (* Deeper D never hurts at P=1 (more prefetch slack). *)
  let at d p =
    match List.nth (List.nth grid (d - 1)) (p - 1) with
    | Some m -> m.Autotune.tflops
    | None -> 0.0
  in
  Alcotest.(check bool) "D3P1 >= D1P1" true (at 3 1 >= at 1 1)

(* ------------------------------------------------------------------ *)
(* Workloads                                                           *)
(* ------------------------------------------------------------------ *)

let test_workload_shapes () =
  let s = Workloads.paper_gemm 1024 in
  Alcotest.(check int) "m" 8192 s.Workloads.m;
  Alcotest.(check (float 1.0)) "flops" (2.0 *. 8192.0 *. 8192.0 *. 1024.0)
    (Workloads.gemm_flops s);
  let grid, params = Workloads.gemm_launch s ~tiles:{ Kernels.block_m = 128; block_n = 128; block_k = 64 } in
  Alcotest.(check bool) "grid" true (grid = (64, 64, 1));
  Alcotest.(check int) "params" 6 (List.length params)

let test_workload_mha () =
  let s = Workloads.paper_mha ~causal:true 4096 in
  let grid, _ = Workloads.mha_launch s ~block_m:128 in
  Alcotest.(check bool) "grid covers heads" true (grid = (32, 128, 1));
  Alcotest.(check (float 1.0)) "causal flops halve"
    (Workloads.mha_flops { s with Workloads.causal = false } /. 2.0)
    (Workloads.mha_flops s)

let test_workload_groups () =
  List.iter
    (fun (label, g) ->
      Alcotest.(check bool) (label ^ " nonempty") true (g <> []);
      Alcotest.(check bool) (label ^ " flops positive") true
        (Workloads.grouped_gemm_flops g > 0.0))
    Workloads.paper_groups

(* ------------------------------------------------------------------ *)
(* Report                                                              *)
(* ------------------------------------------------------------------ *)

let test_report_render () =
  let s = Report.render ~header:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  let lines = String.split_on_char '\n' s in
  Alcotest.(check int) "5 lines (incl trailing empty)" 5 (List.length lines);
  Alcotest.(check bool) "separator" true (Astring.String.is_infix ~affix:"---" s);
  (* Columns aligned: every data line has the same length. *)
  (match lines with
  | l1 :: l2 :: l3 :: _ ->
    Alcotest.(check int) "aligned" (String.length l1) (String.length l3);
    ignore l2
  | _ -> Alcotest.fail "lines")

let test_report_geomean () =
  Alcotest.(check (float 1e-9)) "geomean of 2,8" 4.0 (Report.geomean [ 2.0; 8.0 ]);
  Alcotest.(check (float 1e-9)) "empty" 1.0 (Report.geomean [])

(* ------------------------------------------------------------------ *)
(* Ping-pong protocol (paper SVI)                                      *)
(* ------------------------------------------------------------------ *)

let test_pingpong_completes () =
  let rings = [| Schedule.Ring (Ring.create ~depth:2); Schedule.Ring (Ring.create ~depth:2) |] in
  let agents = Schedule.pingpong_program ~n:16 in
  let tick = ref 0 in
  let choose r =
    incr tick;
    r.(!tick mod Array.length r)
  in
  match Schedule.run ~rings ~choose agents with
  | Schedule.Completed results ->
    (* Each agent consumed the other's parity: agent 0 gets odd values,
       agent 1 gets even values, each in order. *)
    let a0 = List.assoc "pingpong-0" results in
    let a1 = List.assoc "pingpong-1" results in
    Alcotest.(check (list int)) "agent0 receives odds" [ 1; 3; 5; 7; 9; 11; 13; 15 ] a0;
    Alcotest.(check (list int)) "agent1 receives evens" [ 0; 2; 4; 6; 8; 10; 12; 14 ] a1
  | Schedule.Deadlock ws -> Alcotest.failf "deadlock: %s" (String.concat "," ws)
  | Schedule.Error (_, e) -> Alcotest.fail e

let prop_pingpong_deadlock_free =
  QCheck.Test.make ~name:"ping-pong deadlock-free under random schedules" ~count:200
    QCheck.(triple (int_range 1 3) (int_range 2 20) int)
    (fun (depth, half, seed) ->
      let n = 2 * half in
      let rings = [| Schedule.Ring (Ring.create ~depth); Schedule.Ring (Ring.create ~depth) |] in
      let agents = Schedule.pingpong_program ~n in
      let state = ref (seed land 0xFFFFFF) in
      let choose r =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        r.(!state mod Array.length r)
      in
      match Schedule.run ~rings ~choose agents with
      | Schedule.Completed _ -> true
      | Schedule.Deadlock _ | Schedule.Error _ -> false)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "core.flow",
      [
        Alcotest.test_case "compile ws" `Quick test_flow_compile_ws;
        Alcotest.test_case "compile sw" `Quick test_flow_compile_sw;
        Alcotest.test_case "compile naive" `Quick test_flow_naive_loads;
        Alcotest.test_case "sw-pipeline without a loop" `Quick test_flow_sw_without_loop;
        Alcotest.test_case "attention coarse" `Quick test_flow_attention_coarse;
        Alcotest.test_case "all paths agree" `Quick test_flow_all_paths_agree;
      ] );
    ( "core.cache",
      [
        Alcotest.test_case "hit on identical kernel" `Quick
          test_cache_hit_on_identical_kernel;
        Alcotest.test_case "miss on option change" `Quick test_cache_miss_on_option_change;
        Alcotest.test_case "miss on kernel change" `Quick test_cache_miss_on_kernel_change;
        Alcotest.test_case "hit on baselines" `Quick test_cache_hit_on_baselines;
        Alcotest.test_case "cached program correct" `Quick
          test_cached_program_still_correct;
        Alcotest.test_case "miss on float constant change" `Quick
          test_cache_miss_on_float_change;
        Alcotest.test_case "prefix sharing is invisible" `Quick test_prefix_sharing_invisible;
        Alcotest.test_case "pass executions per cold search" `Quick test_prefix_pass_counts;
        Alcotest.test_case "launch attributes on a fresh record" `Quick
          test_prefix_fresh_attrs;
      ] );
    ( "core.autotune",
      [
        Alcotest.test_case "candidates respect P <= D" `Quick
          test_candidates_respect_protocol;
        Alcotest.test_case "tune picks best" `Quick test_tune_picks_feasible_best;
        Alcotest.test_case "dp grid holes" `Quick test_dp_grid_holes;
        Alcotest.test_case "paper sweep order" `Quick test_paper_sweep_order;
      ] );
    ( "core.workloads",
      [
        Alcotest.test_case "gemm shapes" `Quick test_workload_shapes;
        Alcotest.test_case "mha shapes" `Quick test_workload_mha;
        Alcotest.test_case "groups" `Quick test_workload_groups;
      ] );
    ( "core.report",
      [
        Alcotest.test_case "render" `Quick test_report_render;
        Alcotest.test_case "geomean" `Quick test_report_geomean;
      ] );
    ( "core.pingpong",
      [ Alcotest.test_case "completes with role swap" `Quick test_pingpong_completes ] );
    qsuite "core.pingpong.props" [ prop_pingpong_deadlock_free ];
    ( "core.fingerprint",
      [
        Alcotest.test_case "example kernels vs printed form" `Quick test_fingerprint_examples;
        Alcotest.test_case "autotune spaces vs printed form" `Quick test_fingerprint_autotune;
        Alcotest.test_case "gemm fingerprint pinned" `Quick test_fingerprint_pinned;
      ] );
    qsuite "core.fingerprint.props" [ prop_fingerprint_fuzz ];
  ]
