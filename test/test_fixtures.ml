(* The kernels of test/fixtures stress the edges of loop distribution
   and of the dot lowering: an accumulator that is a loaded tile or its
   transpose, an accumulator read again after the dot, control flow
   after and inside the main loop, and a transposed tile read by a dot
   and by a cast. Every one must compute under every build exactly what
   the interpreter computes. *)

open Tawa_tensor
open Tawa_ir
open Tawa_gpusim
module Flow = Tawa_core.Flow

let fixtures = [ "acc_load"; "acc_trans"; "acc_reuse"; "epi_if"; "body_if"; "trans_use" ]

let builds =
  let o = Flow.default_options in
  [
    ("ws D2/P2", { o with aref_depth = 2; mma_depth = 2 });
    ("ws D4/P3", { o with aref_depth = 4; mma_depth = 3 });
    ("persistent", { o with mma_depth = 1; persistent = true });
    ("sw2", { o with strategy = Flow.Sw_pipelined 2; aref_depth = 2 });
    ("sw3", { o with strategy = Flow.Sw_pipelined 3; aref_depth = 3 });
    ("sync", { o with strategy = Flow.Sync_tma });
    ("naive", { o with strategy = Flow.Naive });
  ]

(* M = N = 32 over 16x16 store tiles, K = 48 over three 16-wide slabs. *)
let m, n, k = (32, 32, 48)
let grid = (m / 16, n / 16, 1)

let kernel name =
  match Tawa_frontend.Elaborate.compile_file (Paths.test_fixture (name ^ ".tw")) with
  | [ kernel ] -> kernel
  | _ -> Alcotest.failf "%s: expected one kernel" name

(* Inputs a [M,K], b [K,N] (or [N,K]: the same element count), e [M,K]. *)
let inputs () =
  ( Tensor.random ~dtype:Dtype.F16 ~seed:1 [| m; k |],
    Tensor.random ~dtype:Dtype.F16 ~seed:2 [| k; n |],
    Tensor.random ~dtype:Dtype.F32 ~seed:3 [| m; k |] )

let interp_output kernel =
  let a, b, e = inputs () in
  let c = Tensor.create ~dtype:Dtype.F32 [| m; n |] in
  ignore
    (Interp.run_grid ~grid kernel
       [ Interp.RTensor a; Interp.RTensor b; Interp.RTensor c; Interp.RTensor e;
         Interp.RInt m; Interp.RInt n; Interp.RInt k ]);
  c

let sim_output (c : Flow.compiled) =
  let a, b, e = inputs () in
  let out = Tensor.create ~dtype:Dtype.F32 [| m; n |] in
  ignore
    (Launch.run_grid_functional ~cfg:Config.functional_test c.Flow.program
       ~params:
         [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out; Sim.Rtensor e; Sim.Rint m;
           Sim.Rint n; Sim.Rint k ]
       ~grid);
  out

let test_fixture name options () =
  let kernel = kernel name in
  Alcotest.(check (float 0.0)) "max abs diff vs interp" 0.0
    (Tensor.max_abs_diff (interp_output kernel) (sim_output (Flow.compile ~options kernel)))

let suites =
  [
    ( "integration.fixtures",
      List.concat_map
        (fun name ->
          List.map
            (fun (build, options) ->
              Alcotest.test_case (Printf.sprintf "%s under %s" name build) `Quick
                (test_fixture name options))
            builds)
        fixtures );
  ]
