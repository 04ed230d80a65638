(* Statcheck: the clean corpus lints clean, every statcheck mutation is
   flagged on GEMM + attention, the occupancy scan of the lowered
   program bounds the decode engine's measured high-water marks,
   exactly wherever the run writes every register, across the figure
   kernel families, and the kernel-level verdict is the compiled
   program's. *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_analysis
open Tawa_machine
open Tawa_gpusim
open Tawa_core

let small_tiles = { Kernels.block_m = 16; block_n = 16; block_k = 8 }

let flow_opts ?(d = 2) ?(p = 2) ?(coop = 1) ?(persistent = false) ?(coarse = false) () =
  { Flow.default_options with aref_depth = d; mma_depth = p; num_consumer_wgs = coop; persistent;
    use_coarse = coarse }

let compile ?d ?p ?coop ?persistent ?coarse k =
  Flow.compile ~options:(flow_opts ?d ?p ?coop ?persistent ?coarse ()) k

(* ------------------------- clean corpus --------------------------- *)

let assert_lint_clean what (k : Kernel.t) =
  match Statcheck.check_kernel k with
  | [] -> ()
  | ds -> Alcotest.failf "%s has statcheck diagnostics:\n%s" what (Diagnostic.report ds)

let test_clean_corpus () =
  let gemm = Kernels.gemm ~tiles:small_tiles () in
  assert_lint_clean "gemm d2p2" (compile gemm).Flow.transformed;
  assert_lint_clean "gemm d4p3" (compile ~d:4 ~p:3 gemm).Flow.transformed;
  assert_lint_clean "gemm coop2" (compile ~coop:2 gemm).Flow.transformed;
  assert_lint_clean "gemm persistent" (compile ~persistent:true gemm).Flow.transformed;
  assert_lint_clean "batched gemm"
    (compile (Kernels.batched_gemm ~tiles:small_tiles ())).Flow.transformed;
  assert_lint_clean "gemm_bias_relu"
    (compile (Kernels.gemm_bias_relu ~tiles:small_tiles ())).Flow.transformed;
  let attn = Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 () in
  assert_lint_clean "attention" (compile attn).Flow.transformed;
  assert_lint_clean "attention coarse" (compile ~coarse:true attn).Flow.transformed

(* Feasible figure kernels get a Feasible verdict with sane occupancy;
   an impossible configuration is rejected by the same predicate the
   autotuner will call. *)
let test_occupancy_verdicts () =
  let c = compile (Kernels.gemm ~tiles:small_tiles ()) in
  let r = Statcheck.occupancy_report c.Flow.program in
  (match r.Statcheck.verdict with
  | Resources.Feasible u ->
    Alcotest.(check bool) "smem within budget" true
      (u.Resources.smem_bytes <= Resources.smem_capacity_bytes)
  | Resources.Infeasible why -> Alcotest.failf "small gemm infeasible: %s" why);
  Alcotest.(check bool) "at least one CTA resident" true (r.Statcheck.ctas_per_sm >= 1);
  Alcotest.(check bool) "headroom reported" true
    (r.Statcheck.smem_headroom > 0 && r.Statcheck.reg_headroom > 0);
  (* 128x128x64 f16 at D=8 blows the 227 KiB budget statically: the
     rings alone need 8 x 2 x 16 KiB = 256 KiB. The verdict names the
     first limit broken, registers per thread, so the SMEM overrun is
     read off the footprint. *)
  let c = compile ~d:8 (Kernels.gemm ()) in
  let smem = (Resources.footprint c.Flow.program).Resources.smem_bytes in
  Alcotest.(check bool) "gemm 128x128 D=8 SMEM over capacity" true
    (smem > Resources.smem_capacity_bytes);
  match Statcheck.occupancy c.Flow.transformed with
  | Resources.Infeasible _ -> ()
  | Resources.Feasible u ->
    Alcotest.failf "gemm 128x128 D=8 should be infeasible (smem=%d)"
      u.Resources.smem_bytes

(* --------------------- statcheck mutations ------------------------ *)

let assert_statcheck_flagged ~check what ds =
  if not (List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.check = check) ds) then
    Alcotest.failf "%s: expected a diagnostic from check %S, got:\n%s" what check
      (if ds = [] then "(no diagnostics)" else Diagnostic.report ds)

let test_statcheck_mutations () =
  let bases =
    [ ("gemm", (compile (Kernels.gemm ~tiles:small_tiles ())).Flow.transformed);
      ("attention",
       (compile (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ())).Flow.transformed) ]
  in
  List.iter (fun (bname, k) -> assert_lint_clean bname k) bases;
  List.iter
    (fun (mu : Mutate.t) ->
      List.iter
        (fun (bname, base) ->
          match mu.Mutate.apply base with
          | None ->
            Alcotest.failf "statcheck mutation %s does not apply to %s"
              mu.Mutate.name bname
          | Some mutant ->
            assert_statcheck_flagged ~check:mu.Mutate.expect
              (Printf.sprintf "mutation %s on %s" mu.Mutate.name bname)
              (Statcheck.check_kernel mutant))
        bases)
    Mutate.statcheck_all;
  Alcotest.(check int) "three statcheck mutations" 3 (List.length Mutate.statcheck_all)

(* Diagnostics print in deterministic (op id, check, message) order. *)
let test_diagnostic_sort () =
  let v = Value.fresh Types.i32 in
  let o1 = Op.mk (Op.Const_int 1) ~results:[ v ] in
  let o2 = Op.mk (Op.Const_int 2) ~results:[ Value.fresh Types.i32 ] in
  let d1 = Diagnostic.warning ~check:"b-check" ~op:o2 "late op" in
  let d2 = Diagnostic.warning ~check:"b-check" ~op:o1 "early op" in
  let d3 = Diagnostic.warning ~check:"a-check" ~op:o1 "early op, earlier check" in
  let d4 = Diagnostic.warning ~check:"c-check" "no op" in
  let sorted = Diagnostic.sort [ d1; d2; d3; d4 ] in
  Alcotest.(check (list string)) "sorted by (op id, check)"
    [ "c-check"; "a-check"; "b-check"; "b-check" ]
    (List.map (fun (d : Diagnostic.t) -> d.Diagnostic.check) sorted)

(* --------------- static vs measured (differential) ---------------- *)

(* One functional CTA per case. The occupancy scan must bound the
   decode engine's measured register bytes from above on every warp
   group, and equal them wherever the run writes every register the
   program defines ([exact]): both read the same program, and neither
   engine frees a register. A causal CTA skips the masked tiles of the
   blocks past its diagonal, so there the scan is an upper bound only.
   SMEM is exact too except for rings deeper than the trip count, where
   unwritten slots leave static 1.5x measured; 2x leaves room for
   cost-model churn without letting the bound drift into useless. *)
let smem_slack = 2.0

let fcfg = { Config.h100 with Config.mode = Config.Functional }

let gemm_params ~m ~n ~kk =
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:3 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:4 [| kk; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor c; Sim.Rint m; Sim.Rint n; Sim.Rint kk ]

let attention_params ~l ~d =
  let q = Tensor.random ~dtype:Dtype.F16 ~seed:11 [| l; d |] in
  let kt = Tensor.random ~dtype:Dtype.F16 ~seed:12 [| l; d |] in
  let v = Tensor.random ~dtype:Dtype.F16 ~seed:13 [| l; d |] in
  let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  [ Sim.Rtensor q; Sim.Rtensor kt; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]

let differential ?(exact = true) what (c : Flow.compiled) ~params ~num_programs
    ~pop_global =
  let _, hwm =
    Measure.run_measured ~cfg:fcfg ~program:c.Flow.program ~params ~num_programs
      ~pop_global ()
  in
  let fp = Resources.footprint c.Flow.program in
  let parts = Array.of_list fp.Resources.parts in
  Alcotest.(check int)
    (what ^ ": one measured warp group per static stream")
    (Array.length parts)
    (Array.length hwm.Measure.hwm_reg_bytes);
  Array.iteri
    (fun i (p : Resources.part) ->
      let measured = hwm.Measure.hwm_reg_bytes.(i) in
      let static = p.Resources.tensor_bytes in
      let role = Op.role_to_string p.Resources.role in
      if static < measured then
        Alcotest.failf "%s wg%d (%s): static %d B < measured %d B (unsound)" what i role
          static measured;
      if exact && static <> measured then
        Alcotest.failf "%s wg%d (%s): static %d B <> measured %d B (inexact)" what i role
          static measured)
    parts;
  (* Non-vacuity: a consumer actually held tensor registers. *)
  Alcotest.(check bool)
    (what ^ ": some warp group measured > 0 register bytes")
    true
    (Array.exists (fun b -> b > 0) hwm.Measure.hwm_reg_bytes);
  let m_smem = hwm.Measure.hwm_smem_bytes in
  let s_smem = fp.Resources.smem_bytes in
  if s_smem < m_smem then
    Alcotest.failf "%s: static SMEM %d B < measured %d B (unsound)" what s_smem m_smem;
  if m_smem > 0 && float_of_int s_smem > smem_slack *. float_of_int m_smem then
    Alcotest.failf "%s: static SMEM %d B > %.0fx measured %d B (too loose)" what
      s_smem smem_slack m_smem

let test_differential_gemm () =
  differential "gemm d2p2"
    (compile (Kernels.gemm ~tiles:small_tiles ()))
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~num_programs:[| 2; 2; 1 |] ~pop_global:Launch.no_queue;
  differential "gemm d3p2"
    (compile ~d:3 (Kernels.gemm ~tiles:small_tiles ()))
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~num_programs:[| 2; 2; 1 |] ~pop_global:Launch.no_queue;
  differential "naive gemm"
    (Flow.compile
       ~options:{ Flow.default_options with strategy = Flow.Naive }
       (Kernels.gemm ~tiles:small_tiles ()))
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~num_programs:[| 2; 2; 1 |] ~pop_global:Launch.no_queue

(* The coarse T/C/U pipeline clones the T stage into the prologue and
   rotates the scores through two registers; the scan reads both. *)
let test_differential_attention () =
  let attn ?(b = 16) ?(d = 8) ?causal () =
    Kernels.attention ~block_m:b ~block_n:b ~head_dim:d ?causal ()
  in
  let run ?exact what c ~l ~d ~ctas =
    differential ?exact what c ~params:(attention_params ~l ~d)
      ~num_programs:[| ctas; 1; 1 |] ~pop_global:Launch.no_queue
  in
  run "attention" (compile (attn ())) ~l:32 ~d:8 ~ctas:2;
  run "coarse attention" (compile ~coarse:true (attn ())) ~l:32 ~d:8 ~ctas:2;
  run ~exact:false "coarse causal attention"
    (compile ~coarse:true (attn ~causal:true ()))
    ~l:64 ~d:8 ~ctas:4;
  run "coarse attention 64x64x64"
    (compile ~coarse:true (attn ~b:64 ~d:64 ()))
    ~l:256 ~d:64 ~ctas:4

let test_differential_persistent () =
  differential "persistent gemm"
    (compile ~persistent:true (Kernels.gemm ~tiles:small_tiles ()))
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~num_programs:[| 2; 2; 1 |]
    ~pop_global:(Launch.queue_of_list [ 0; 1; 2; 3 ])

let test_differential_coop () =
  differential "coop gemm"
    (compile ~coop:2 (Kernels.gemm ~tiles:small_tiles ()))
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~num_programs:[| 2; 2; 1 |] ~pop_global:Launch.no_queue

(* ------------------- lowering reads only the kernel ---------------- *)

(* Every lowering decision is on the transformed kernel, so lowering it
   again gives the compiled program, and the kernel-level occupancy
   verdict is the program's: on every candidate of a GEMM and an
   attention search space and on every example kernel under each
   lowering strategy. *)
let test_lowering_reads_only_the_kernel () =
  let feasible = ref 0 and infeasible = ref 0 in
  let agree what (c : Flow.compiled) =
    if Codegen.lower c.Flow.transformed <> c.Flow.program then
      Alcotest.failf "%s: lowering the transformed kernel gives another program" what;
    let want = Resources.occupancy c.Flow.program in
    (match want with
    | Resources.Feasible _ -> incr feasible
    | Resources.Infeasible _ -> incr infeasible);
    if Statcheck.occupancy c.Flow.transformed <> want then
      Alcotest.failf "%s: the kernel's occupancy verdict is not its program's" what
  in
  List.iter
    (fun fam ->
      List.iter
        (fun (c : Autotune.candidate) ->
          agree (Autotune.candidate_to_string c)
            (Flow.compile ~options:(Autotune.options_of c) (Autotune.kernel_of fam c)))
        (Autotune.space fam))
    [ Autotune.Gemm { Workloads.m = 256; n = 256; k = 256; dtype = Dtype.F16 };
      Autotune.Attention (Workloads.paper_mha ~causal:true 1024) ];
  let dir = Paths.examples_dir in
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".tw")
    |> List.sort compare
  in
  Alcotest.(check bool) "example kernels found" true (files <> []);
  List.iter
    (fun file ->
      List.iter
        (fun (k : Kernel.t) ->
          List.iter
            (fun options ->
              agree (file ^ " " ^ Flow.options_key options) (Flow.compile ~options k))
            [ Flow.default_options;
              { Flow.default_options with strategy = Flow.Sw_pipelined 3; aref_depth = 3 };
              { Flow.default_options with strategy = Flow.Sync_tma };
              { Flow.default_options with strategy = Flow.Naive } ])
        (Elaborate.compile_file (Filename.concat dir file)))
    files;
  Alcotest.(check bool) "both verdicts exercised" true (!feasible > 0 && !infeasible > 0)

let suites =
  [
    ( "statcheck.clean",
      [ Alcotest.test_case "compiled corpus lints clean" `Quick test_clean_corpus;
        Alcotest.test_case "occupancy verdicts" `Quick test_occupancy_verdicts ] );
    ( "statcheck.mutations",
      [ Alcotest.test_case "three statcheck mutations flagged on gemm + attention"
          `Quick test_statcheck_mutations;
        Alcotest.test_case "diagnostics sort deterministically" `Quick
          test_diagnostic_sort ] );
    ( "statcheck.differential",
      [ Alcotest.test_case "gemm static bounds measured" `Quick test_differential_gemm;
        Alcotest.test_case "attention static bounds measured" `Quick
          test_differential_attention;
        Alcotest.test_case "persistent static bounds measured" `Quick
          test_differential_persistent;
        Alcotest.test_case "coop static bounds measured" `Quick test_differential_coop ] );
    ( "statcheck.lowering",
      [ Alcotest.test_case "lowering reads only the kernel" `Quick
          test_lowering_reads_only_the_kernel ] );
  ]
