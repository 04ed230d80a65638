(* Machine-level tests: mbarrier semantics, code generation, and — most
   importantly — functional simulation of every compilation style
   (plain, warp-specialized, fine-pipelined, coarse-pipelined, cp.async
   software-pipelined, naive, persistent, cooperative) against the
   reference kernels. *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_passes
open Tawa_machine
open Tawa_gpusim

let small_tiles = { Kernels.block_m = 16; block_n = 16; block_k = 8 }
let cfg = Config.functional_test

(* ------------------------------------------------------------------ *)
(* Mbarrier                                                           *)
(* ------------------------------------------------------------------ *)

let test_mbar_basic () =
  let b = Mbarrier.create ~arrive_count:1 in
  Alcotest.(check (option (float 0.0))) "wait 0 trivial" (Some 0.0)
    (Mbarrier.try_wait b ~target:0);
  Alcotest.(check (option (float 0.0))) "wait 1 blocks" None (Mbarrier.try_wait b ~target:1);
  Alcotest.(check bool) "arrive completes" true (Mbarrier.arrive b ~time:10.0);
  Alcotest.(check (option (float 0.0))) "wait 1 at t=10" (Some 10.0)
    (Mbarrier.try_wait b ~target:1)

let test_mbar_arrive_count () =
  (* Transaction-count aggregation: two arrivals per completion (e.g.
     the A and B TMA loads of one GEMM aref slot). *)
  let b = Mbarrier.create ~arrive_count:2 in
  Alcotest.(check bool) "first arrival pending" false (Mbarrier.arrive b ~time:5.0);
  Alcotest.(check (option (float 0.0))) "still blocked" None (Mbarrier.try_wait b ~target:1);
  Alcotest.(check bool) "second completes" true (Mbarrier.arrive b ~time:8.0);
  (* Completion time is the LAST arrival. *)
  Alcotest.(check (option (float 0.0))) "time of completion" (Some 8.0)
    (Mbarrier.try_wait b ~target:1)

let test_mbar_phases () =
  let b = Mbarrier.create ~arrive_count:1 in
  ignore (Mbarrier.arrive b ~time:1.0);
  ignore (Mbarrier.arrive b ~time:2.0);
  ignore (Mbarrier.arrive b ~time:3.0);
  Alcotest.(check int) "three completions" 3 (Mbarrier.completions b);
  Alcotest.(check (option (float 0.0))) "phase 2 time" (Some 2.0)
    (Mbarrier.try_wait b ~target:2);
  Mbarrier.reset b;
  Alcotest.(check int) "reset" 0 (Mbarrier.completions b)

let prop_mbar_monotonic =
  QCheck.Test.make ~name:"mbarrier completion times are monotonic in phase" ~count:200
    QCheck.(list_of_size (Gen.int_range 1 30) (float_range 0.0 100.0))
    (fun times ->
      let b = Mbarrier.create ~arrive_count:1 in
      (* Arrivals at non-decreasing times (engines complete in order). *)
      let sorted = List.sort compare times in
      List.iter (fun t -> ignore (Mbarrier.arrive b ~time:t)) sorted;
      let n = Mbarrier.completions b in
      let ok = ref true in
      for i = 1 to n - 1 do
        if Mbarrier.completion_time b i > Mbarrier.completion_time b (i + 1) then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Codegen structure                                                  *)
(* ------------------------------------------------------------------ *)

let compile_ws ?(d = 2) ?(p = 1) ?(coarse = false) kernel =
  let options =
    { Manager.default_options with aref_depth = d; mma_depth = p; use_coarse = coarse }
  in
  (Manager.compile ~options kernel).Manager.kernel

let test_codegen_gemm_streams () =
  let prog = Codegen.lower (compile_ws (Kernels.gemm ~tiles:small_tiles ())) in
  Alcotest.(check int) "two streams" 2 (List.length prog.Isa.streams);
  let roles = List.map (fun (s : Isa.stream) -> s.Isa.role) prog.Isa.streams in
  Alcotest.(check bool) "producer first" true (List.hd roles = Op.Producer);
  Alcotest.(check bool) "smem allocated" true (Isa.smem_bytes prog > 0);
  Alcotest.(check bool) "mbarriers" true (prog.Isa.num_mbarriers >= 4);
  (* Producer stream holds the TMA loads; consumer the WGMMAs. *)
  let count pred (s : Isa.stream) =
    Array.fold_left (fun n i -> if pred i then n + 1 else n) 0 s.Isa.instrs
  in
  let producer = List.nth prog.Isa.streams 0 and consumer = List.nth prog.Isa.streams 1 in
  Alcotest.(check bool) "producer has tma" true
    (count (function Isa.Tma_load _ -> true | _ -> false) producer > 0);
  Alcotest.(check int) "producer has no wgmma" 0
    (count (function Isa.Wgmma _ -> true | _ -> false) producer);
  Alcotest.(check bool) "consumer has wgmma" true
    (count (function Isa.Wgmma _ -> true | _ -> false) consumer > 0);
  Alcotest.(check int) "consumer has no tma" 0
    (count (function Isa.Tma_load _ -> true | _ -> false) consumer)

let test_codegen_prints () =
  let prog = Codegen.lower (compile_ws (Kernels.gemm ~tiles:small_tiles ())) in
  let s = Isa.program_to_string prog in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Astring.String.is_infix ~affix:needle s))
    [ "wgmma.mma_async"; "mbarrier.arrive"; "mbarrier.try_wait.parity";
      "cp.async.bulk.tensor"; "warp group" ]

let test_codegen_cp_style () =
  let piped = Sw_pipeline.apply ~stages:2 (Kernels.gemm ~tiles:small_tiles ()) in
  Verifier.verify piped;
  let prog = Codegen.lower piped in
  Alcotest.(check int) "single stream" 1 (List.length prog.Isa.streams);
  Alcotest.(check bool) "uses rings" true (prog.Isa.num_rings > 0);
  let s = Isa.program_to_string prog in
  Alcotest.(check bool) "has cp.async" true (Astring.String.is_infix ~affix:"cp.async(ring" s);
  Alcotest.(check bool) "no mbarrier tma" false
    (Astring.String.is_infix ~affix:"cp.async.bulk.tensor" s)

(* Negation is the only scalar unop with an instruction: a scalar math
   function must stop code generation, not become a tile instruction
   on a scalar register that fails in simulation. *)
let test_codegen_scalar_unop () =
  let lower o =
    Codegen.lower
      (Builder.kernel "scalar_unop" [ ("x", Types.scalar Dtype.F32) ] (fun b args ->
           ignore (Builder.unop b o (List.hd args))))
  in
  ignore (lower Op.Neg);
  List.iter
    (fun o ->
      let name = Op.unop_to_string o in
      match lower o with
      | _ -> Alcotest.failf "scalar %s lowered" name
      | exception Codegen.Codegen_error msg ->
        Alcotest.(check bool) (msg ^ " names " ^ name) true
          (Astring.String.is_infix ~affix:name msg))
    [ Op.Exp; Op.Exp2; Op.Log; Op.Log2; Op.Sqrt; Op.Rsqrt; Op.Abs; Op.Not ]

(* ------------------------------------------------------------------ *)
(* Functional simulation                                               *)
(* ------------------------------------------------------------------ *)

(* The naive build's register loads, as [Flow] stamps them. *)
let naive k = Kernel.with_attr k "load_style" (Op.Attr_string "ldg")

let sim_gemm kernel ~tiles ~dtype ~m ~n ~k =
  let prog = Codegen.lower kernel in
  let a = Tensor.random ~dtype ~seed:1 [| m; k |] in
  let b = Tensor.random ~dtype ~seed:2 [| k; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  let params =
    [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor c; Sim.Rint m; Sim.Rint n; Sim.Rint k ]
  in
  let grid = (m / tiles.Kernels.block_m, n / tiles.Kernels.block_n, 1) in
  ignore (Launch.run_grid_functional ~cfg prog ~params ~grid);
  (c, Reference.gemm ~out_dtype:Dtype.F16 a b)

let expect_gemm_matches name kernel =
  let got, want = sim_gemm kernel ~tiles:small_tiles ~dtype:Dtype.F16 ~m:32 ~n:32 ~k:24 in
  Alcotest.(check bool) name true (Tensor.max_rel_diff got want < 1e-3)

let test_sim_plain_gemm () =
  expect_gemm_matches "plain gemm" (Kernels.gemm ~tiles:small_tiles ())

let test_sim_ws_gemm () =
  List.iter
    (fun (d, p) ->
      expect_gemm_matches
        (Printf.sprintf "ws gemm D=%d P=%d" d p)
        (compile_ws ~d ~p (Kernels.gemm ~tiles:small_tiles ())))
    [ (1, 1); (2, 1); (2, 2); (3, 2); (4, 3) ]

let test_sim_ws_gemm_fp8 () =
  let kernel = compile_ws ~d:2 ~p:2 (Kernels.gemm ~tiles:small_tiles ~dtype:Dtype.F8E4M3 ()) in
  let got, want =
    sim_gemm kernel ~tiles:small_tiles ~dtype:Dtype.F8E4M3 ~m:16 ~n:16 ~k:16
  in
  Alcotest.(check bool) "fp8 ws gemm" true (Tensor.max_rel_diff got want < 1e-2)

let test_sim_sw_pipeline_gemm () =
  List.iter
    (fun s ->
      expect_gemm_matches
        (Printf.sprintf "cp.async gemm S=%d" s)
        (Sw_pipeline.apply ~stages:s (Kernels.gemm ~tiles:small_tiles ())))
    [ 1; 2; 3 ]

let test_sim_naive_gemm () =
  expect_gemm_matches "naive ldg gemm" (naive (Kernels.gemm ~tiles:small_tiles ()))

let test_sim_persistent_gemm () =
  expect_gemm_matches "persistent ws gemm"
    (let options =
       { Manager.default_options with aref_depth = 2; mma_depth = 2; persistent = true }
     in
     (Manager.compile ~options (Kernels.gemm ~tiles:small_tiles ())).Manager.kernel)

let test_sim_coop_gemm () =
  let options =
    { Manager.default_options with aref_depth = 2; mma_depth = 2; num_consumer_wgs = 2 }
  in
  expect_gemm_matches "cooperative ws gemm"
    ((Manager.compile ~options (Kernels.gemm ~tiles:small_tiles ())).Manager.kernel)

let test_sim_gemm_bias_relu_ws () =
  let kernel = compile_ws ~d:2 ~p:2 (Kernels.gemm_bias_relu ~tiles:small_tiles ()) in
  let prog = Codegen.lower kernel in
  let m = 16 and n = 16 and k = 16 in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:7 [| m; k |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:8 [| k; n |] in
  let bias = Tensor.random ~seed:9 [| 1; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  let params =
    [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor bias; Sim.Rtensor c; Sim.Rint m;
      Sim.Rint n; Sim.Rint k ]
  in
  ignore (Launch.run_grid_functional ~cfg prog ~params ~grid:(1, 1, 1));
  let base = Reference.gemm ~out_dtype:Dtype.F32 a b in
  let want = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      Tensor.set2 want i j (Float.max 0.0 (Tensor.get2 base i j +. Tensor.get2 bias 0 j))
    done
  done;
  Alcotest.(check bool) "bias+relu ws sim" true (Tensor.max_rel_diff c want < 1e-3)

let sim_attention kernel ~bm ~l ~d ~causal =
  let prog = Codegen.lower kernel in
  let q = Tensor.random ~dtype:Dtype.F16 ~seed:11 [| l; d |] in
  let kk = Tensor.random ~dtype:Dtype.F16 ~seed:12 [| l; d |] in
  let v = Tensor.random ~dtype:Dtype.F16 ~seed:13 [| l; d |] in
  let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  let params =
    [ Sim.Rtensor q; Sim.Rtensor kk; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]
  in
  ignore (Launch.run_grid_functional ~cfg prog ~params ~grid:(l / bm, 1, 1));
  let want = Reference.attention ~causal ~out_dtype:Dtype.F16 ~q ~k:kk ~v () in
  (o, want)

let test_sim_plain_attention () =
  List.iter
    (fun causal ->
      let kern = Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ~causal () in
      let got, want = sim_attention kern ~bm:16 ~l:32 ~d:8 ~causal in
      Alcotest.(check bool)
        (Printf.sprintf "plain attention causal=%b" causal)
        true
        (Tensor.max_rel_diff got want < 2e-2))
    [ false; true ]

let test_sim_ws_attention () =
  List.iter
    (fun causal ->
      let kern =
        compile_ws ~d:2 (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ~causal ())
      in
      let got, want = sim_attention kern ~bm:16 ~l:32 ~d:8 ~causal in
      Alcotest.(check bool)
        (Printf.sprintf "ws attention causal=%b" causal)
        true
        (Tensor.max_rel_diff got want < 2e-2))
    [ false; true ]

let test_sim_coarse_attention () =
  (* The Algorithm-1 rotated schedule must stay functionally exact. *)
  List.iter
    (fun causal ->
      List.iter
        (fun d ->
          let kern =
            compile_ws ~d ~coarse:true
              (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ~causal ())
          in
          let got, want = sim_attention kern ~bm:16 ~l:48 ~d:8 ~causal in
          Alcotest.(check bool)
            (Printf.sprintf "coarse attention causal=%b D=%d" causal d)
            true
            (Tensor.max_rel_diff got want < 2e-2))
        [ 2; 3 ])
    [ false; true ]

let prop_sim_ws_gemm_random =
  QCheck.Test.make ~name:"simulated ws gemm == reference (random shapes)" ~count:8
    QCheck.(triple (int_range 1 3) (int_range 1 3) (int_range 1 4))
    (fun (gm, gn, kk) ->
      let tiles = { Kernels.block_m = 8; block_n = 8; block_k = 8 } in
      let kernel = compile_ws ~d:2 ~p:2 (Kernels.gemm ~tiles ()) in
      let got, want =
        sim_gemm kernel ~tiles ~dtype:Dtype.F16 ~m:(8 * gm) ~n:(8 * gn) ~k:(8 * kk)
      in
      Tensor.max_rel_diff got want < 1e-3)

(* ------------------------------------------------------------------ *)
(* Timing sanity                                                       *)
(* ------------------------------------------------------------------ *)

let timing_of kernel ~tiles ~m ~n ~k =
  let prog = Codegen.lower kernel in
  let params =
    [ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint m; Sim.Rint n; Sim.Rint k ]
  in
  Launch.estimate ~cfg:Config.h100 prog ~params
    ~grid:(m / tiles.Kernels.block_m, n / tiles.Kernels.block_n, 1)
    ~flops:(Reference.gemm_flops ~m ~n ~k)

let paper_tiles = Kernels.default_tiles (* 128x128x64 *)

let test_timing_ws_beats_baselines () =
  let m = 2048 and n = 2048 and k = 2048 in
  let ws =
    timing_of
      (compile_ws ~d:3 ~p:2 (Kernels.gemm ~tiles:paper_tiles ()))
      ~tiles:paper_tiles ~m ~n ~k
  in
  let triton =
    timing_of
      (Sw_pipeline.apply ~stages:3 (Kernels.gemm ~tiles:paper_tiles ()))
      ~tiles:paper_tiles ~m ~n ~k
  in
  let naive =
    timing_of (naive (Kernels.gemm ~tiles:paper_tiles ())) ~tiles:paper_tiles ~m ~n ~k
  in
  Alcotest.(check bool) "ws faster than sw-pipelined triton" true
    (ws.Launch.tflops > triton.Launch.tflops);
  Alcotest.(check bool) "triton faster than naive" true
    (triton.Launch.tflops > naive.Launch.tflops);
  Alcotest.(check bool) "ws utilization high" true (ws.Launch.tc_utilization > 0.6);
  Alcotest.(check bool) "tflops in plausible range" true
    (ws.Launch.tflops > 300.0 && ws.Launch.tflops < 990.0)

let test_timing_deeper_aref_helps () =
  let m = 2048 and n = 2048 and k = 4096 in
  let t d =
    (timing_of
       (compile_ws ~d ~p:1 (Kernels.gemm ~tiles:paper_tiles ()))
       ~tiles:paper_tiles ~m ~n ~k)
      .Launch.tflops
  in
  Alcotest.(check bool) "D=2 >= D=1" true (t 2 >= t 1 *. 0.99)

let test_timing_persistent_helps () =
  let m = 4096 and n = 4096 and k = 4096 in
  let base = compile_ws ~d:3 ~p:2 (Kernels.gemm ~tiles:paper_tiles ()) in
  let np =
    timing_of base ~tiles:paper_tiles ~m ~n ~k
  in
  let p =
    timing_of
      (Kernel.with_attr base "persistent" (Op.Attr_bool true))
      ~tiles:paper_tiles ~m ~n ~k
  in
  Alcotest.(check bool) "persistent >= non-persistent" true
    (p.Launch.tflops >= np.Launch.tflops)

let test_sim_deadlock_detection () =
  (* A consumer that waits for a phase nobody produces deadlocks and the
     simulator says so. *)
  let program =
    {
      Isa.name = "deadlock";
      param_tys = [];
      streams =
        [ { Isa.role = Op.Consumer;
            coop = 1;
            instrs =
              [| Isa.Mbar_wait
                   { bar = { Isa.base = 0; index = Isa.Imm 0 }; target = Isa.Imm 1 };
                 Isa.Exit |] } ];
      allocs = [];
      num_mbarriers = 1;
      mbar_arrive_counts = [| 1 |];
      mbar_resettable = [| true |];
      num_rings = 0;
      persistent = false;
      grid_axes = 3;
      prov = Isa.no_prov;
    }
  in
  Alcotest.(check bool) "deadlock detected" true
    (try
       ignore
         (Oracle.run_cta ~cfg:Config.h100 ~program ~params:[]
            ~num_programs:[| 1; 1; 1 |] ~pop_global:Launch.no_queue ());
       false
     with Sim.Sim_error msg -> Astring.String.is_infix ~affix:"deadlock" msg)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "machine.mbarrier",
      [
        Alcotest.test_case "basic" `Quick test_mbar_basic;
        Alcotest.test_case "arrive count" `Quick test_mbar_arrive_count;
        Alcotest.test_case "phases + parity" `Quick test_mbar_phases;
      ] );
    qsuite "machine.mbarrier.props" [ prop_mbar_monotonic ];
    ( "machine.codegen",
      [
        Alcotest.test_case "gemm streams" `Quick test_codegen_gemm_streams;
        Alcotest.test_case "ptx-like text" `Quick test_codegen_prints;
        Alcotest.test_case "cp.async style" `Quick test_codegen_cp_style;
        Alcotest.test_case "scalar math unop rejected" `Quick test_codegen_scalar_unop;
      ] );
    ( "machine.sim.functional",
      [
        Alcotest.test_case "plain gemm" `Quick test_sim_plain_gemm;
        Alcotest.test_case "ws gemm (D,P sweep)" `Quick test_sim_ws_gemm;
        Alcotest.test_case "ws gemm fp8" `Quick test_sim_ws_gemm_fp8;
        Alcotest.test_case "cp.async gemm" `Quick test_sim_sw_pipeline_gemm;
        Alcotest.test_case "naive gemm" `Quick test_sim_naive_gemm;
        Alcotest.test_case "persistent gemm" `Quick test_sim_persistent_gemm;
        Alcotest.test_case "cooperative gemm" `Quick test_sim_coop_gemm;
        Alcotest.test_case "bias-relu ws" `Quick test_sim_gemm_bias_relu_ws;
        Alcotest.test_case "plain attention" `Quick test_sim_plain_attention;
        Alcotest.test_case "ws attention" `Quick test_sim_ws_attention;
        Alcotest.test_case "coarse attention" `Quick test_sim_coarse_attention;
      ] );
    qsuite "machine.sim.props" [ prop_sim_ws_gemm_random ];
    ( "machine.sim.timing",
      [
        Alcotest.test_case "ws beats baselines" `Quick test_timing_ws_beats_baselines;
        Alcotest.test_case "deeper aref helps" `Quick test_timing_deeper_aref_helps;
        Alcotest.test_case "persistent helps" `Quick test_timing_persistent_helps;
        Alcotest.test_case "deadlock detection" `Quick test_sim_deadlock_detection;
      ] );
  ]
