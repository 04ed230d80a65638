(* Cross-cutting integration tests: edge shapes (tail tiles from
   non-divisible K), FP8 attention end-to-end, combined optimization
   stacks, fault injection (missing releases deadlock; the simulator
   says so), and trip-count edge cases for both pipelining styles. *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_passes
open Tawa_machine
open Tawa_gpusim

let small_tiles = { Kernels.block_m = 16; block_n = 16; block_k = 8 }
let cfg = Config.functional_test

let compile ?(d = 2) ?(p = 2) ?(coop = 1) ?(persistent = false) ?(coarse = false) kernel =
  Tawa_core.Flow.compile
    ~options:
      { Tawa_core.Flow.default_options with aref_depth = d; mma_depth = p; num_consumer_wgs = coop;
        persistent; use_coarse = coarse }
    kernel

let sim_gemm (c : Tawa_core.Flow.compiled) ~m ~n ~k ~dtype =
  let a = Tensor.random ~dtype ~seed:1 [| m; k |] in
  let b = Tensor.random ~dtype ~seed:2 [| k; n |] in
  let out = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  ignore
    (Launch.run_grid_functional ~cfg c.Tawa_core.Flow.program
       ~params:
         [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out; Sim.Rint m; Sim.Rint n;
           Sim.Rint k ]
       ~grid:((m + 15) / 16, (n + 15) / 16, 1));
  (out, Reference.gemm ~out_dtype:Dtype.F16 a b)

(* ------------------------------------------------------------------ *)
(* Tail tiles: K not a multiple of block_k                             *)
(* ------------------------------------------------------------------ *)

let test_tail_k_ws () =
  (* K = 20 with block_k = 8: the last iteration's loads run off the
     end; TMA boundary fill must zero-pad and results still match. *)
  List.iter
    (fun kk ->
      let c = compile ~d:2 ~p:2 (Kernels.gemm ~tiles:small_tiles ()) in
      let got, want = sim_gemm c ~m:16 ~n:16 ~k:kk ~dtype:Dtype.F16 in
      Alcotest.(check bool)
        (Printf.sprintf "tail K=%d" kk)
        true
        (Tensor.max_rel_diff got want < 1e-3))
    [ 20; 12; 4; 7 ]

let test_tail_k_sw_pipeline () =
  List.iter
    (fun kk ->
      let kernel = Sw_pipeline.apply ~stages:3 (Kernels.gemm ~tiles:small_tiles ()) in
      let c =
        { (compile kernel) with Tawa_core.Flow.program = Codegen.lower kernel }
      in
      (* compile() would re-run warp specialization; build directly. *)
      let c = { c with Tawa_core.Flow.transformed = kernel } in
      let got, want = sim_gemm c ~m:16 ~n:16 ~k:kk ~dtype:Dtype.F16 in
      Alcotest.(check bool)
        (Printf.sprintf "sw tail K=%d" kk)
        true
        (Tensor.max_rel_diff got want < 1e-3))
    [ 20; 4 ]

let test_short_trip_counts () =
  (* Trip counts below the pipeline depths: D=4, P=3 with only 1-2
     iterations must drain correctly. *)
  List.iter
    (fun kk ->
      let c = compile ~d:4 ~p:3 (Kernels.gemm ~tiles:small_tiles ()) in
      let got, want = sim_gemm c ~m:16 ~n:16 ~k:kk ~dtype:Dtype.F16 in
      Alcotest.(check bool)
        (Printf.sprintf "short trip K=%d" kk)
        true
        (Tensor.max_rel_diff got want < 1e-3))
    [ 8; 16 ]

let test_sw_stages_exceed_trip_count () =
  let kernel = Sw_pipeline.apply ~stages:4 (Kernels.gemm ~tiles:small_tiles ()) in
  Verifier.verify kernel;
  let prog = Codegen.lower kernel in
  let m = 16 and n = 16 and kk = 16 (* 2 iterations < 4 stages *) in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| kk; n |] in
  let out = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  ignore
    (Launch.run_grid_functional ~cfg prog
       ~params:
         [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out; Sim.Rint m; Sim.Rint n;
           Sim.Rint kk ]
       ~grid:(1, 1, 1));
  Alcotest.(check bool) "stages > trips" true
    (Tensor.max_rel_diff out (Reference.gemm ~out_dtype:Dtype.F16 a b) < 1e-3)

(* ------------------------------------------------------------------ *)
(* FP8 attention end-to-end                                            *)
(* ------------------------------------------------------------------ *)

let test_fp8_attention_coarse () =
  let l = 32 and d = 8 in
  let kernel =
    Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:d ~dtype:Dtype.F8E4M3 ()
  in
  let c = compile ~d:2 ~p:1 ~coarse:true kernel in
  Alcotest.(check bool) "coarse" true c.Tawa_core.Flow.coarse;
  let q = Tensor.random ~dtype:Dtype.F8E4M3 ~seed:11 [| l; d |] in
  let kt = Tensor.random ~dtype:Dtype.F8E4M3 ~seed:12 [| l; d |] in
  let v = Tensor.random ~dtype:Dtype.F8E4M3 ~seed:13 [| l; d |] in
  let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  ignore
    (Launch.run_grid_functional ~cfg c.Tawa_core.Flow.program
       ~params:[ Sim.Rtensor q; Sim.Rtensor kt; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]
       ~grid:(l / 16, 1, 1));
  let want = Reference.attention ~out_dtype:Dtype.F16 ~q ~k:kt ~v () in
  Alcotest.(check bool) "fp8 coarse attention" true (Tensor.max_rel_diff o want < 5e-2)

(* ------------------------------------------------------------------ *)
(* Combined optimization stack                                         *)
(* ------------------------------------------------------------------ *)

let test_everything_on_at_once () =
  (* WS + fine pipeline + cooperative WGs + persistent, multi-tile
     grid, functional. *)
  let c = compile ~d:3 ~p:2 ~coop:2 ~persistent:true (Kernels.gemm ~tiles:small_tiles ()) in
  Alcotest.(check bool) "persistent program" true
    c.Tawa_core.Flow.program.Isa.persistent;
  let got, want = sim_gemm c ~m:48 ~n:32 ~k:40 ~dtype:Dtype.F16 in
  Alcotest.(check bool) "all-on gemm" true (Tensor.max_rel_diff got want < 1e-3)

let test_persistent_coarse_attention () =
  let l = 48 in
  let kernel = Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ~causal:true () in
  let c = compile ~d:2 ~p:1 ~persistent:true ~coarse:true kernel in
  let q = Tensor.random ~dtype:Dtype.F16 ~seed:31 [| l; 8 |] in
  let kt = Tensor.random ~dtype:Dtype.F16 ~seed:32 [| l; 8 |] in
  let v = Tensor.random ~dtype:Dtype.F16 ~seed:33 [| l; 8 |] in
  let o = Tensor.create ~dtype:Dtype.F16 [| l; 8 |] in
  ignore
    (Launch.run_grid_functional ~cfg c.Tawa_core.Flow.program
       ~params:[ Sim.Rtensor q; Sim.Rtensor kt; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]
       ~grid:(l / 16, 1, 1));
  let want = Reference.attention ~causal:true ~out_dtype:Dtype.F16 ~q ~k:kt ~v () in
  Alcotest.(check bool) "persistent coarse causal attention" true
    (Tensor.max_rel_diff o want < 2e-2)

(* ------------------------------------------------------------------ *)
(* Fault injection                                                     *)
(* ------------------------------------------------------------------ *)

let test_missing_consumed_deadlocks () =
  (* Strip the consumed ops from a warp-specialized kernel: the
     producer must starve once the ring fills, and the simulator must
     report the deadlock rather than hang or corrupt data. *)
  let spec =
    Partition.warp_specialize (Kernels.gemm ~tiles:small_tiles ())
  in
  let removed = Hashtbl.create 4 in
  Op.iter_region
    (fun op ->
      if op.Op.opcode = Op.Aref_consumed then Hashtbl.replace removed op.Op.oid ())
    spec.Kernel.body;
  Rewrite.erase_ops spec removed;
  Verifier.verify spec;
  let prog = Codegen.lower spec in
  let m = 16 and n = 16 and kk = 48 (* 6 iterations > D=2: must starve *) in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| kk; n |] in
  let out = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  Alcotest.(check bool) "deadlock detected" true
    (try
       ignore
         (Launch.run_grid_functional ~cfg prog
            ~params:
              [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out; Sim.Rint m; Sim.Rint n;
                Sim.Rint kk ]
            ~grid:(1, 1, 1));
       false
     with Sim.Sim_error msg -> Astring.String.is_infix ~affix:"deadlock" msg)

let test_wrong_arity_params_rejected () =
  let c = compile (Kernels.gemm ~tiles:small_tiles ()) in
  Alcotest.(check bool) "arity mismatch reported" true
    (try
       ignore
         (Launch.run_grid_functional ~cfg c.Tawa_core.Flow.program ~params:[ Sim.Rnone ]
            ~grid:(1, 1, 1));
       false
     with Sim.Sim_error msg -> Astring.String.is_infix ~affix:"arity" msg)

(* ------------------------------------------------------------------ *)
(* Whole-pipeline properties                                           *)
(* ------------------------------------------------------------------ *)

let prop_pipeline_configs_agree =
  (* Any feasible (D, P, coop, persistent) combination computes the
     same GEMM as the sequential interpreter. *)
  QCheck.Test.make ~name:"any (D,P,coop,persistent) agrees with interp" ~count:12
    QCheck.(
      quad (int_range 1 4) (int_range 1 3) (int_range 1 2) bool)
    (fun (d, p, coop, persistent) ->
      QCheck.assume (d >= p);
      let tiles = { Kernels.block_m = 8; block_n = 8; block_k = 8 } in
      let m = 16 and n = 16 and kk = 24 in
      let c = compile ~d ~p ~coop ~persistent (Kernels.gemm ~tiles ()) in
      let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| m; kk |] in
      let b = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| kk; n |] in
      let out = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
      ignore
        (Launch.run_grid_functional ~cfg c.Tawa_core.Flow.program
           ~params:
             [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out; Sim.Rint m; Sim.Rint n;
               Sim.Rint kk ]
           ~grid:(2, 2, 1));
      (* Interpreter golden. *)
      let gold = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
      ignore
        (Interp.run_grid ~grid:(2, 2, 1) (Kernels.gemm ~tiles ())
           [ Interp.RTensor a; Interp.RTensor b; Interp.RTensor gold; Interp.RInt m;
             Interp.RInt n; Interp.RInt kk ]);
      Tensor.max_abs_diff out gold = 0.0)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "integration.edges",
      [
        Alcotest.test_case "tail K (ws)" `Quick test_tail_k_ws;
        Alcotest.test_case "tail K (sw pipeline)" `Quick test_tail_k_sw_pipeline;
        Alcotest.test_case "short trip counts" `Quick test_short_trip_counts;
        Alcotest.test_case "stages > trips" `Quick test_sw_stages_exceed_trip_count;
        Alcotest.test_case "fp8 coarse attention" `Quick test_fp8_attention_coarse;
      ] );
    ( "integration.stacks",
      [
        Alcotest.test_case "everything on" `Quick test_everything_on_at_once;
        Alcotest.test_case "persistent coarse attention" `Quick
          test_persistent_coarse_attention;
      ] );
    ( "integration.faults",
      [
        Alcotest.test_case "missing consumed deadlocks" `Quick
          test_missing_consumed_deadlocks;
        Alcotest.test_case "arity mismatch" `Quick test_wrong_arity_params_rejected;
      ] );
    qsuite "integration.props" [ prop_pipeline_configs_agree ];
  ]
