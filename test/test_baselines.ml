(* Tests over the framework models: the orderings and qualitative
   relationships the paper's evaluation reports must hold in the
   reproduction (EXPERIMENTS.md records the quantitative comparison). *)

open Tawa_tensor
open Tawa_core
open Tawa_baselines

let gemm fw shape =
  match Frameworks.gemm fw shape with
  | Some t -> t.Tawa_gpusim.Launch.tflops
  | None -> Alcotest.failf "%s has no gemm" (Frameworks.name fw)

let mha fw shape = Option.map (fun t -> t.Tawa_gpusim.Launch.tflops) (Frameworks.mha fw shape)

let big_k = Workloads.paper_gemm 16384
let small_k = Workloads.paper_gemm 256

let test_tawa_matches_cublas () =
  (* Paper: 1.01x (FP16) / 1.06x (FP8) average over cuBLAS. *)
  List.iter
    (fun dtype ->
      let shape = Workloads.paper_gemm ~dtype 8192 in
      let r = gemm Frameworks.Tawa shape /. gemm Frameworks.Cublas shape in
      Alcotest.(check bool)
        (Printf.sprintf "tawa/cublas within 6%% (%s): %.3f" (Dtype.to_string dtype) r)
        true
        (r > 0.94 && r < 1.12))
    [ Dtype.F16; Dtype.F8E4M3 ]

let test_tawa_beats_triton_gemm () =
  (* Paper: 1.13x (FP16), with the gap widening at small K. *)
  let r_big = gemm Frameworks.Tawa big_k /. gemm Frameworks.Triton big_k in
  let r_small = gemm Frameworks.Tawa small_k /. gemm Frameworks.Triton small_k in
  Alcotest.(check bool) "ahead at large K" true (r_big > 1.0);
  Alcotest.(check bool) "gap widens at small K" true (r_small > r_big)

let test_tilelang_crossover_fp16 () =
  (* Paper: TileLang is stronger than Tawa at K >= 8192 but weaker at
     small K. *)
  Alcotest.(check bool) "TileLang wins at K=16384" true
    (gemm Frameworks.Tilelang big_k > gemm Frameworks.Tawa big_k);
  Alcotest.(check bool) "Tawa wins at K=256" true
    (gemm Frameworks.Tawa small_k > gemm Frameworks.Tilelang small_k)

let test_tilelang_fp8_collapse () =
  (* Paper: 2.40x average, up to 3.99x at K=256. *)
  let shape k = Workloads.paper_gemm ~dtype:Dtype.F8E4M3 k in
  let r256 = gemm Frameworks.Tawa (shape 256) /. gemm Frameworks.Tilelang (shape 256) in
  let r16k = gemm Frameworks.Tawa (shape 16384) /. gemm Frameworks.Tilelang (shape 16384) in
  Alcotest.(check bool) "collapse at small K >= 2x" true (r256 > 2.0);
  Alcotest.(check bool) "collapse everywhere >= 2x" true (r16k > 2.0)

let test_thunderkittens_fp8_weak_at_small_k () =
  let shape k = Workloads.paper_gemm ~dtype:Dtype.F8E4M3 k in
  let r256 = gemm Frameworks.Tawa (shape 256) /. gemm Frameworks.Thunderkittens (shape 256) in
  Alcotest.(check bool) "~1.5x at small K" true (r256 > 1.3)

let test_fa3_bounds_tawa_mha () =
  (* Paper: Tawa reaches 89-96% of FA3. *)
  List.iter
    (fun dtype ->
      List.iter
        (fun causal ->
          let shape = Workloads.paper_mha ~dtype ~causal 16384 in
          match (mha Frameworks.Tawa shape, mha Frameworks.Fa3 shape) with
          | Some tw, Some fa ->
            let frac = tw /. fa in
            Alcotest.(check bool)
              (Printf.sprintf "tawa in 80-100%% of FA3 (%s causal=%b): %.2f"
                 (Dtype.to_string dtype) causal frac)
              true
              (frac > 0.80 && frac < 1.0)
          | _ -> Alcotest.fail "missing result")
        [ false; true ])
    [ Dtype.F16; Dtype.F8E4M3 ]

let test_tawa_beats_triton_mha () =
  (* Paper: 1.21x (FP16) / 1.11x (FP8) over Triton. *)
  let shape = Workloads.paper_mha 16384 in
  match (mha Frameworks.Tawa shape, mha Frameworks.Triton shape) with
  | Some tw, Some tr -> Alcotest.(check bool) "ahead of Triton" true (tw /. tr > 1.1)
  | _ -> Alcotest.fail "missing result"

let test_fp8_attention_unsupported_baselines () =
  (* Paper: "TileLang and ThunderKittens failed to execute our FP8
     attention configurations". *)
  let shape = Workloads.paper_mha ~dtype:Dtype.F8E4M3 4096 in
  Alcotest.(check bool) "tilelang fails" true (mha Frameworks.Tilelang shape = None);
  Alcotest.(check bool) "thunderkittens fails" true (mha Frameworks.Thunderkittens shape = None);
  Alcotest.(check bool) "tawa runs" true (mha Frameworks.Tawa shape <> None)

let test_mha_grows_with_length () =
  (* Amortization: every framework improves with L (the paper's "at
     short sequences the advantage is muted" premise). *)
  List.iter
    (fun fw ->
      let t l = Option.get (mha fw (Workloads.paper_mha l)) in
      Alcotest.(check bool)
        (Frameworks.name fw ^ " scales with L")
        true
        (t 16384 > t 1024))
    [ Frameworks.Tawa; Frameworks.Fa3; Frameworks.Triton ]

let test_causal_lowers_tflops () =
  (* Mask-induced hazards: causal attains lower TFLOPS than non-causal
     at the same length (paper Fig. 10a vs 10b). *)
  let nc = Option.get (mha Frameworks.Tawa (Workloads.paper_mha 8192)) in
  let c = Option.get (mha Frameworks.Tawa (Workloads.paper_mha ~causal:true 8192)) in
  Alcotest.(check bool) "causal slower" true (c < nc)

let test_fp8_gemm_doubles_headroom () =
  (* FP8 peak is 2x FP16: Tawa FP8 must land clearly above FP16. *)
  let f16 = gemm Frameworks.Tawa (Workloads.paper_gemm 16384) in
  let f8 = gemm Frameworks.Tawa (Workloads.paper_gemm ~dtype:Dtype.F8E4M3 16384) in
  Alcotest.(check bool) "fp8 > 1.5x fp16" true (f8 > 1.5 *. f16)

(* Tawa's GEMM cell is the paper sweep's winner with its own timing:
   it simulates each sweep candidate at most once, stopping the ones
   that can no longer win, and reports the tuned winner bit for bit.
   The uncut loop runs every candidate to its end, which keeps each
   sweep point's deadlock and step-budget checks in the suite. *)
let test_tawa_cell_is_the_sweep () =
  let module Engine = Tawa_gpusim.Engine in
  let family = Autotune.Gemm small_k in
  let retired f =
    let before = Engine.instructions_retired () in
    let v = f () in
    (v, Engine.instructions_retired () - before)
  in
  let (), sweep =
    retired (fun () ->
        List.iter
          (fun c -> ignore (Autotune.measure family c))
          (Autotune.gemm_candidates ~dtype:small_k.Workloads.dtype ()))
  in
  let cell, cell_retired =
    retired (fun () -> Option.get (Frameworks.gemm Frameworks.Tawa small_k))
  in
  Alcotest.(check bool) "at most one sweep's instructions" true (cell_retired <= sweep);
  let _, tuned = Autotune.tune_gemm small_k in
  let bits = Int64.bits_of_float in
  Alcotest.(check int64) "tflops bits" (bits tuned.Tawa_gpusim.Launch.tflops)
    (bits cell.Tawa_gpusim.Launch.tflops);
  Alcotest.(check int64) "cycles bits" (bits tuned.Tawa_gpusim.Launch.cycles)
    (bits cell.Tawa_gpusim.Launch.cycles)

let suites =
  [
    ( "baselines.gemm",
      [
        Alcotest.test_case "tawa ~ cublas" `Quick test_tawa_matches_cublas;
        Alcotest.test_case "tawa > triton" `Quick test_tawa_beats_triton_gemm;
        Alcotest.test_case "tilelang crossover" `Quick test_tilelang_crossover_fp16;
        Alcotest.test_case "tilelang fp8 collapse" `Quick test_tilelang_fp8_collapse;
        Alcotest.test_case "tk fp8 small-k" `Quick test_thunderkittens_fp8_weak_at_small_k;
        Alcotest.test_case "fp8 headroom" `Quick test_fp8_gemm_doubles_headroom;
        Alcotest.test_case "tawa cell times the sweep once" `Quick
          test_tawa_cell_is_the_sweep;
      ] );
    ( "baselines.mha",
      [
        Alcotest.test_case "fa3 bounds tawa" `Quick test_fa3_bounds_tawa_mha;
        Alcotest.test_case "tawa > triton" `Quick test_tawa_beats_triton_mha;
        Alcotest.test_case "fp8 attention unsupported" `Quick
          test_fp8_attention_unsupported_baselines;
        Alcotest.test_case "scales with L" `Quick test_mha_grows_with_length;
        Alcotest.test_case "causal slower" `Quick test_causal_lowers_tflops;
      ] );
  ]
