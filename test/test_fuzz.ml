(* Differential fuzzing of the whole compiler: generate random tile
   kernels (a TMA-fed dot loop followed by a random elementwise
   epilogue chain, with random tile shapes and trip counts; the dot
   accumulates onto the loop-carried value, a loaded tile or its
   transpose, which the loop may read again after the dot), compile
   them through every pipeline configuration, execute on the simulator,
   and demand exact agreement with the sequential interpreter.

   This is the strongest correctness statement in the repository: for
   arbitrary programs in the supported fragment, warp specialization +
   pipelining + lowering + simulation is semantics-preserving. *)

open Tawa_tensor
open Tawa_ir
open Tawa_gpusim

(* ------------------------------------------------------------------ *)
(* Random kernel generation                                            *)
(* ------------------------------------------------------------------ *)

type ew_op = Add_const | Mul_const | Abs_op | Max_zero | Exp_damped | Sub_self_max

(* What the dot accumulates onto: the loop-carried value, or a tile of
   the f32 input e loaded each iteration (as is, or transposed), whose
   product the loop then adds to the carried value. Only a kernel with
   a loaded source takes e. *)
type acc_source = Carried | Loaded | Loaded_trans

type spec = {
  bm : int;
  bn : int;
  bk : int;
  trip : int; (* loop iterations *)
  acc_src : acc_source;
  reread : bool; (* the loop reads the dot's accumulator again after it *)
  loop_chain : ew_op list;  (* elementwise ops applied to acc in-loop *)
  epi_chain : ew_op list;   (* elementwise ops applied after the loop *)
  const : float;
}

(* The fragment without the accumulator axes: the dot accumulates onto
   the carried value, which nothing else reads. *)
let gen_base_spec =
  QCheck.Gen.(
    let* bm = oneofl [ 4; 8 ] in
    let* bn = oneofl [ 4; 8 ] in
    let* bk = oneofl [ 4; 8 ] in
    let* trip = int_range 1 5 in
    let* nloop = int_range 0 2 in
    let* nepi = int_range 0 3 in
    let op =
      oneofl [ Add_const; Mul_const; Abs_op; Max_zero; Exp_damped; Sub_self_max ]
    in
    let* loop_chain = list_size (return nloop) op in
    let* epi_chain = list_size (return nepi) op in
    let* const = float_range (-1.5) 1.5 in
    return
      { bm; bn; bk; trip; acc_src = Carried; reread = false; loop_chain; epi_chain; const })

let gen_spec =
  QCheck.Gen.(
    let* s = gen_base_spec in
    let* acc_src = oneofl [ Carried; Loaded; Loaded_trans ] in
    let* reread = bool in
    return { s with acc_src; reread })

let spec_print s =
  Printf.sprintf "bm=%d bn=%d bk=%d trip=%d acc=%s reread=%b loop=%d epi=%d c=%.3f" s.bm s.bn
    s.bk s.trip
    (match s.acc_src with Carried -> "carried" | Loaded -> "loaded" | Loaded_trans -> "trans")
    s.reread (List.length s.loop_chain) (List.length s.epi_chain) s.const

let arb_spec = QCheck.make ~print:spec_print gen_spec

(* Apply one elementwise op to a [bm x bn] f32 tile value. All choices
   keep magnitudes bounded so FP16 storage cannot overflow. *)
let emit_ew b shape const (x : Value.t) = function
  | Add_const ->
    let c = Builder.splat b (Builder.const_f b const) shape in
    Builder.add b x c
  | Mul_const ->
    let c = Builder.splat b (Builder.const_f b (0.5 +. (const /. 4.0))) shape in
    Builder.mul b x c
  | Abs_op -> Builder.unop b Op.Abs x
  | Max_zero ->
    let z = Builder.zeros b shape Dtype.F32 in
    Builder.max_ b x z
  | Exp_damped ->
    (* exp(-|x| / 4): bounded in (0, 1]. *)
    let a = Builder.unop b Op.Abs x in
    let q = Builder.splat b (Builder.const_f b (-0.25)) shape in
    Builder.exp b (Builder.mul b a q)
  | Sub_self_max ->
    (* x - rowmax(x) broadcast: the softmax-style pattern. *)
    let m = Builder.reduce b Op.Red_max 1 x in
    let mb = Builder.broadcast b (Builder.expand_dims b m 1) shape in
    Builder.sub b x mb

(* The arguments of [s]'s kernel: a, b, c, then e if the accumulator
   is loaded, then [ints] (M, N, K). *)
let args (s : spec) a b c e ints =
  [ a; b; c ] @ (if s.acc_src = Carried then [] else [ e ]) @ ints

let build_kernel (s : spec) : Kernel.t =
  Builder.kernel "fuzz"
    (args s ("a", Types.ptr Dtype.F16) ("b", Types.ptr Dtype.F16) ("c", Types.ptr Dtype.F16)
       ("e", Types.ptr Dtype.F32)
       [ ("M", Types.i32); ("N", Types.i32); ("K", Types.i32) ])
    (fun b ps ->
      let a_ptr, b_ptr, c_ptr, e_ptr, m, n, k =
        match ps with
        | [ a; bb; c; m; n; k ] -> (a, bb, c, None, m, n, k)
        | [ a; bb; c; e; m; n; k ] -> (a, bb, c, Some e, m, n, k)
        | _ -> assert false
      in
      let c1 = Builder.const_i b 1 in
      let da = Builder.make_tensor_desc b a_ptr ~sizes:[ m; k ] ~strides:[ k; c1 ] ~dtype:Dtype.F16 in
      let db = Builder.make_tensor_desc b b_ptr ~sizes:[ k; n ] ~strides:[ n; c1 ] ~dtype:Dtype.F16 in
      let dc = Builder.make_tensor_desc b c_ptr ~sizes:[ m; n ] ~strides:[ n; c1 ] ~dtype:Dtype.F16 in
      let pid_m = Builder.program_id b 0 in
      let pid_n = Builder.program_id b 1 in
      let offs_m = Builder.mul b pid_m (Builder.const_i b s.bm) in
      let offs_n = Builder.mul b pid_n (Builder.const_i b s.bn) in
      let acc0 = Builder.zeros b [ s.bm; s.bn ] Dtype.F32 in
      let shape = [ s.bm; s.bn ] in
      (* A loaded accumulator source: e is [M, N], read as [N, M] for the
         transposed source. *)
      let load_src =
        match (s.acc_src, e_ptr) with
        | Loaded, Some e_ptr ->
          let de =
            Builder.make_tensor_desc b e_ptr ~sizes:[ m; n ] ~strides:[ n; c1 ] ~dtype:Dtype.F32
          in
          Some (fun () -> Builder.tma_load b de ~offsets:[ offs_m; offs_n ] ~shape)
        | Loaded_trans, Some e_ptr ->
          let de =
            Builder.make_tensor_desc b e_ptr ~sizes:[ n; m ] ~strides:[ m; c1 ] ~dtype:Dtype.F32
          in
          Some
            (fun () ->
              Builder.trans b
                (Builder.tma_load b de ~offsets:[ offs_n; offs_m ] ~shape:[ s.bn; s.bm ]))
        | _ -> None
      in
      let results =
        Builder.for_ b ~lb:(Builder.const_i b 0) ~ub:k ~step:(Builder.const_i b s.bk)
          ~inits:[ acc0 ]
          (fun iv iters ->
            let acc = List.hd iters in
            let at = Builder.tma_load b da ~offsets:[ offs_m; iv ] ~shape:[ s.bm; s.bk ] in
            let bt = Builder.tma_load b db ~offsets:[ iv; offs_n ] ~shape:[ s.bk; s.bn ] in
            let src = match load_src with Some load -> load () | None -> acc in
            let d = Builder.dot b at bt src in
            let d =
              if s.reread then
                Builder.add b d (Builder.mul b src (Builder.splat b (Builder.const_f b 0.5) shape))
              else d
            in
            let acc = if Option.is_none load_src then d else Builder.add b acc d in
            let acc =
              List.fold_left (fun x op -> emit_ew b shape s.const x op) acc s.loop_chain
            in
            [ acc ])
      in
      let out =
        List.fold_left
          (fun x op -> emit_ew b shape s.const x op)
          (List.hd results) s.epi_chain
      in
      let out16 = Builder.cast b out (Types.tensor shape Dtype.F16) in
      Builder.tma_store b dc ~offsets:[ offs_m; offs_n ] out16)

(* ------------------------------------------------------------------ *)
(* Differential execution                                              *)
(* ------------------------------------------------------------------ *)

let interp_golden kernel (s : spec) ~grid_m ~grid_n =
  let m = grid_m * s.bm and n = grid_n * s.bn in
  let kk = s.trip * s.bk in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:41 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:42 [| kk; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  let e = Tensor.random ~dtype:Dtype.F32 ~seed:43 [| m; n |] in
  ignore
    (Interp.run_grid ~grid:(grid_m, grid_n, 1) kernel
       (args s (Interp.RTensor a) (Interp.RTensor b) (Interp.RTensor c) (Interp.RTensor e)
          [ Interp.RInt m; Interp.RInt n; Interp.RInt kk ]));
  (a, b, e, c)

let sim_output (compiled : Tawa_core.Flow.compiled) (s : spec) ~grid_m ~grid_n ~a ~b ~e =
  let m = grid_m * s.bm and n = grid_n * s.bn in
  let kk = s.trip * s.bk in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  ignore
    (Launch.run_grid_functional ~cfg:Config.functional_test compiled.Tawa_core.Flow.program
       ~params:
         (args s (Sim.Rtensor a) (Sim.Rtensor b) (Sim.Rtensor c) (Sim.Rtensor e)
            [ Sim.Rint m; Sim.Rint n; Sim.Rint kk ])
       ~grid:(grid_m, grid_n, 1));
  c

let check_spec ?(grid_m = 2) ?(grid_n = 2) (s : spec) compile_fn =
  let kernel = build_kernel s in
  Verifier.verify kernel;
  let a, b, e, golden = interp_golden kernel s ~grid_m ~grid_n in
  let compiled = compile_fn kernel in
  Verifier.verify compiled.Tawa_core.Flow.transformed;
  let got = sim_output compiled s ~grid_m ~grid_n ~a ~b ~e in
  Tensor.max_abs_diff golden got = 0.0

let ws_compile ~d ~p kernel =
  Tawa_core.Flow.compile
    ~options:
      { Tawa_core.Flow.default_options with aref_depth = d; mma_depth = p; num_consumer_wgs = 1;
        persistent = false; use_coarse = false }
    kernel

let prop_fuzz_ws =
  QCheck.Test.make ~name:"fuzz: random kernels, warp-specialized == interp" ~count:40
    arb_spec
    (fun s -> check_spec s (ws_compile ~d:2 ~p:2))

let prop_fuzz_ws_deep =
  QCheck.Test.make ~name:"fuzz: random kernels, D=4/P=3 == interp" ~count:20 arb_spec
    (fun s -> check_spec s (ws_compile ~d:4 ~p:3))

let prop_fuzz_sw_pipeline =
  QCheck.Test.make ~name:"fuzz: random kernels, cp.async pipeline == interp" ~count:25
    arb_spec
    (fun s ->
      check_spec s
        (Tawa_core.Flow.compile
           ~options:
             { Tawa_core.Flow.default_options with
               strategy = Tawa_core.Flow.Sw_pipelined 3; aref_depth = 3 }))

let prop_fuzz_naive =
  QCheck.Test.make ~name:"fuzz: random kernels, naive loads == interp" ~count:20 arb_spec
    (fun s ->
      check_spec s
        (Tawa_core.Flow.compile
           ~options:{ Tawa_core.Flow.default_options with strategy = Tawa_core.Flow.Naive }))

let prop_fuzz_persistent =
  QCheck.Test.make ~name:"fuzz: random kernels, persistent == interp" ~count:20 arb_spec
    (fun s ->
      check_spec s (fun kernel ->
          Tawa_core.Flow.compile
            ~options:
              { Tawa_core.Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1;
                persistent = true; use_coarse = false }
            kernel))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    qsuite "fuzz.differential"
      [ prop_fuzz_ws; prop_fuzz_ws_deep; prop_fuzz_sw_pipeline; prop_fuzz_naive;
        prop_fuzz_persistent ];
  ]
