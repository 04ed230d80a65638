(* The .tw kernels shipped in examples/kernels/ must parse, verify,
   compile through the full Tawa pipeline, and compute correct results
   on the simulator — guarding everything `tawac` users would touch. *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_gpusim

let load name =
  match Elaborate.compile_file (Filename.concat Paths.examples_dir name) with
  | [ k ] -> k
  | ks -> Alcotest.failf "%s: expected one kernel, got %d" name (List.length ks)

let compile ?(coarse = false) kernel =
  Tawa_core.Flow.compile
    ~options:
      { Tawa_core.Flow.default_options with aref_depth = 2; mma_depth = 2; num_consumer_wgs = 1;
        persistent = false; use_coarse = coarse }
    kernel

let test_gemm_tw () =
  let c = compile (load "gemm.tw") in
  Alcotest.(check bool) "warp specialized" true c.Tawa_core.Flow.warp_specialized;
  let m = 32 and n = 32 and kk = 24 in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| kk; n |] in
  let out = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  ignore
    (Launch.run_grid_functional ~cfg:Config.functional_test c.Tawa_core.Flow.program
       ~params:
         [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out; Sim.Rint m; Sim.Rint n;
           Sim.Rint kk ]
       ~grid:(m / 16, n / 16, 1));
  Alcotest.(check bool) "matches reference" true
    (Tensor.max_rel_diff out (Reference.gemm ~out_dtype:Dtype.F16 a b) < 1e-3)

(* FP8 inputs quantize at tensor creation, so the simulator and the
   reference see identical values and the diff is exact. *)
let test_gemm_fp8_tw () =
  let c = compile (load "gemm_fp8.tw") in
  Alcotest.(check bool) "warp specialized" true c.Tawa_core.Flow.warp_specialized;
  let m = 32 and n = 32 and kk = 24 in
  let a = Tensor.random ~dtype:Dtype.F8E4M3 ~seed:1 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F8E4M3 ~seed:2 [| kk; n |] in
  let out = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  ignore
    (Launch.run_grid_functional ~cfg:Config.functional_test c.Tawa_core.Flow.program
       ~params:
         [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out; Sim.Rint m; Sim.Rint n;
           Sim.Rint kk ]
       ~grid:(m / 16, n / 16, 1));
  Alcotest.(check bool) "matches reference" true
    (Tensor.max_rel_diff out (Reference.gemm ~out_dtype:Dtype.F16 a b) < 1e-3)

let test_attention_tw () =
  let c = compile ~coarse:true (load "attention.tw") in
  Alcotest.(check bool) "coarse" true c.Tawa_core.Flow.coarse;
  let l = 64 and d = 8 in
  let q = Tensor.random ~dtype:Dtype.F16 ~seed:11 [| l; d |] in
  let kt = Tensor.random ~dtype:Dtype.F16 ~seed:12 [| l; d |] in
  let v = Tensor.random ~dtype:Dtype.F16 ~seed:13 [| l; d |] in
  let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  ignore
    (Launch.run_grid_functional ~cfg:Config.functional_test c.Tawa_core.Flow.program
       ~params:[ Sim.Rtensor q; Sim.Rtensor kt; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]
       ~grid:(l / 16, 1, 1));
  let want = Reference.attention ~out_dtype:Dtype.F16 ~q ~k:kt ~v () in
  Alcotest.(check bool) "matches reference" true (Tensor.max_rel_diff o want < 2e-2)

let test_gemm_bias_relu_tw () =
  let c = compile (load "gemm_bias_relu.tw") in
  Alcotest.(check bool) "warp specialized" true c.Tawa_core.Flow.warp_specialized;
  let m = 16 and n = 16 and kk = 16 in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:7 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:8 [| kk; n |] in
  let bias = Tensor.random ~seed:9 [| 1; n |] in
  let out = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  ignore
    (Launch.run_grid_functional ~cfg:Config.functional_test c.Tawa_core.Flow.program
       ~params:
         [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor bias; Sim.Rtensor out; Sim.Rint m;
           Sim.Rint n; Sim.Rint kk ]
       ~grid:(1, 1, 1));
  let base = Reference.gemm ~out_dtype:Dtype.F32 a b in
  let want = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      Tensor.set2 want i j (Float.max 0.0 (Tensor.get2 base i j +. Tensor.get2 bias 0 j))
    done
  done;
  Alcotest.(check bool) "bias+relu matches" true (Tensor.max_rel_diff out want < 1e-3)

let test_all_tw_files_found () =
  let files = Sys.readdir Paths.examples_dir in
  let tw = Array.to_list files |> List.filter (fun f -> Filename.check_suffix f ".tw") in
  Alcotest.(check bool) "at least four shipped kernels" true (List.length tw >= 4);
  (* Every shipped .tw file must at minimum parse and verify. *)
  List.iter
    (fun f ->
      let ks = Elaborate.compile_file (Filename.concat Paths.examples_dir f) in
      List.iter Verifier.verify ks)
    tw

(* The suites find the shipped kernels from the test executable, not
   the working directory: run from the temporary directory, where a
   path relative to the build tree names nothing, every kernel still
   loads and verifies. *)
let test_found_from_any_cwd () =
  let cwd = Sys.getcwd () in
  Fun.protect
    ~finally:(fun () -> Sys.chdir cwd)
    (fun () ->
      Sys.chdir (Filename.get_temp_dir_name ());
      let tw =
        Sys.readdir Paths.examples_dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".tw")
      in
      Alcotest.(check bool) "kernels listed" true (List.length tw >= 4);
      List.iter
        (fun f ->
          List.iter Verifier.verify
            (Elaborate.compile_file (Filename.concat Paths.examples_dir f)))
        tw)

(* Each lowering strategy emits its own instruction set on gemm.tw
   (the idiom of compiling a kernel per target and grepping its asm;
   "mbarrier." names the instructions, not the header's barrier count).
   With the compile cache keyed on a fingerprint, this also catches one
   strategy being served another's program. *)
let test_strategy_instructions () =
  let asm options = Tawa_core.Flow.dump_asm (Tawa_core.Flow.compile ~options (load "gemm.tw")) in
  let expect what options ~has ~lacks =
    let s = asm options in
    List.iter
      (fun i ->
        Alcotest.(check bool) (what ^ " emits " ^ i) true (Astring.String.is_infix ~affix:i s))
      has;
    List.iter
      (fun i ->
        Alcotest.(check bool) (what ^ " lacks " ^ i) false (Astring.String.is_infix ~affix:i s))
      lacks
  in
  let o = Tawa_core.Flow.default_options in
  expect "warp-specialized" o
    ~has:[ "mbarrier.try_wait.parity"; "mbarrier.arrive"; "cp.async.bulk.tensor" ]
    ~lacks:[ "ld.global" ];
  expect "sw-pipelined" { o with strategy = Tawa_core.Flow.Sw_pipelined 3; aref_depth = 3 }
    ~has:[ "cp.async("; "cp.async.wait_group" ]
    ~lacks:[ "mbarrier."; "cp.async.bulk.tensor"; "ld.global" ];
  expect "naive" { o with strategy = Tawa_core.Flow.Naive } ~has:[ "ld.global" ]
    ~lacks:[ "mbarrier."; "cp.async" ]

let suites =
  [
    ( "examples.kernels",
      [
        Alcotest.test_case "gemm.tw end-to-end" `Quick test_gemm_tw;
        Alcotest.test_case "gemm_fp8.tw end-to-end" `Quick test_gemm_fp8_tw;
        Alcotest.test_case "attention.tw end-to-end" `Quick test_attention_tw;
        Alcotest.test_case "gemm_bias_relu.tw end-to-end" `Quick test_gemm_bias_relu_tw;
        Alcotest.test_case "all .tw files verify" `Quick test_all_tw_files_found;
        Alcotest.test_case "found from any working directory" `Quick
          test_found_from_any_cwd;
        Alcotest.test_case "strategies emit their instructions" `Quick
          test_strategy_instructions;
      ] );
  ]
