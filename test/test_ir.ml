(* Tests for the tile IR: construction, printing, verification,
   use-def graph, rewriting, and the reference interpreter. *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend

let small_tiles = { Kernels.block_m = 16; block_n = 16; block_k = 8 }

(* ------------------------------------------------------------------ *)
(* Types                                                              *)
(* ------------------------------------------------------------------ *)

let test_type_strings () =
  Alcotest.(check string) "tensor" "tensor<128x64xf16>"
    (Types.to_string (Types.tensor [ 128; 64 ] Dtype.F16));
  Alcotest.(check string) "ptr" "ptr<f8e4m3>" (Types.to_string (Types.ptr Dtype.F8E4M3));
  Alcotest.(check string) "aref"
    "aref<[memdesc<16x8xf16>],3>"
    (Types.to_string (Types.aref [ Types.memdesc [ 16; 8 ] Dtype.F16 ] 3))

let test_type_equal () =
  let t1 = Types.tensor [ 4; 4 ] Dtype.F16 in
  let t2 = Types.tensor [ 4; 4 ] Dtype.F16 in
  let t3 = Types.tensor [ 4; 8 ] Dtype.F16 in
  Alcotest.(check bool) "equal" true (Types.equal t1 t2);
  Alcotest.(check bool) "shape differs" false (Types.equal t1 t3);
  Alcotest.(check bool) "tensor vs memdesc" false
    (Types.equal t1 (Types.memdesc [ 4; 4 ] Dtype.F16))

let test_type_sizes () =
  Alcotest.(check int) "f16 tile bytes" (128 * 64 * 2)
    (Types.size_bytes (Types.tensor [ 128; 64 ] Dtype.F16));
  Alcotest.(check int) "numel" 8192 (Types.numel (Types.tensor [ 128; 64 ] Dtype.F16))

(* ------------------------------------------------------------------ *)
(* Builder + verifier                                                 *)
(* ------------------------------------------------------------------ *)

let test_build_gemm_verifies () =
  let k = Kernels.gemm ~tiles:small_tiles () in
  Verifier.verify k;
  Alcotest.(check bool) "has ops" true (Kernel.count_ops k > 10);
  Alcotest.(check bool) "not warp specialized" false (Kernel.is_warp_specialized k)

let test_build_attention_verifies () =
  List.iter
    (fun causal ->
      let k = Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ~causal () in
      Verifier.verify k)
    [ false; true ]

let test_build_all_kernels_verify () =
  Verifier.verify (Kernels.batched_gemm ~tiles:small_tiles ());
  Verifier.verify (Kernels.gemm_bias_relu ~tiles:small_tiles ());
  Verifier.verify (Kernels.gemm ~dtype:Dtype.F8E4M3 ~tiles:small_tiles ())

(* Every builder function a tile shape enters through rejects a
   dimension below 1, naming itself and the shape. *)
let test_build_rejects_zero_size_tiles () =
  let rejects what build =
    match
      Builder.kernel "zero" [ ("p", Types.ptr Dtype.F16) ] (fun b ps ->
          let i = Builder.const_i b 8 in
          let desc =
            Builder.make_tensor_desc b (List.hd ps) ~sizes:[ i; i ] ~strides:[ i; i ]
              ~dtype:Dtype.F16
          in
          let tile = Builder.zeros b [ 8; 8 ] Dtype.F16 in
          ignore (build b desc i tile))
    with
    | _ -> Alcotest.failf "%s: a zero-size tile was accepted" what
    | exception Invalid_argument msg ->
      Alcotest.(check bool) (what ^ " names itself") true
        (Astring.String.is_prefix ~affix:("Builder." ^ what ^ ": tile dimensions") msg)
  in
  rejects "tma_load" (fun b desc i _ -> Builder.tma_load b desc ~offsets:[ i; i ] ~shape:[ 0; 8 ]);
  rejects "splat" (fun b _ _ _ -> Builder.zeros b [ 8; 0 ] Dtype.F32);
  rejects "splat" (fun b _ i _ -> Builder.splat b i [ -1 ]);
  rejects "broadcast" (fun b _ _ tile -> Builder.broadcast b tile [ 0; 8 ]);
  rejects "reshape" (fun b _ _ tile -> Builder.reshape b tile [ 64; 0 ]);
  rejects "iota" (fun b _ _ _ -> Builder.iota b 0)

(* [Verifier.verify] as a result: [Error] carries the diagnostic. *)
let verify_result k =
  match Verifier.verify k with
  | () -> Ok ()
  | exception Verifier.Ill_formed msg -> Error msg

let test_verifier_rejects_undefined_use () =
  let ghost = Value.fresh Types.i32 in
  let k =
    Builder.kernel "bad" [ ("x", Types.i32) ] (fun b _ ->
        ignore (Builder.emit1 b (Op.Binop Op.Add) [ ghost; ghost ] Types.i32))
  in
  match verify_result k with
  | Error msg ->
    Alcotest.(check bool) "mentions undefined" true
      (Astring.String.is_infix ~affix:"undefined" msg)
  | Ok () -> Alcotest.fail "expected ill-formed"

let test_verifier_rejects_bad_dot () =
  let k =
    Builder.kernel "bad_dot" [] (fun b _ ->
        let a = Builder.zeros b [ 4; 8 ] Dtype.F16 in
        let bb = Builder.zeros b [ 4; 8 ] Dtype.F16 in
        let acc = Builder.zeros b [ 4; 8 ] Dtype.F32 in
        (* Bypass the builder's own shape check via raw emit. *)
        ignore
          (Builder.emit1 b Op.Dot [ a; bb; acc ] (Types.tensor [ 4; 8 ] Dtype.F32)))
  in
  match verify_result k with
  | Error msg ->
    Alcotest.(check bool) "mentions dot" true (Astring.String.is_infix ~affix:"dot" msg)
  | Ok () -> Alcotest.fail "expected dot shape error"

let test_verifier_rejects_double_def () =
  let v = Value.fresh Types.i32 in
  let op1 = Op.mk (Op.Const_int 1) ~results:[ v ] in
  let op2 = Op.mk (Op.Const_int 2) ~results:[ v ] in
  let k =
    Kernel.create ~name:"dbl" ~params:[] ~body:(Op.single_block_region [ op1; op2 ])
  in
  match verify_result k with
  | Error msg ->
    Alcotest.(check bool) "mentions twice" true
      (Astring.String.is_infix ~affix:"twice" msg)
  | Ok () -> Alcotest.fail "expected double definition error"

let test_verifier_rejects_bad_yield_arity () =
  let k =
    Builder.kernel "bad_for" [ ("n", Types.i32) ] (fun b ps ->
        let n = List.hd ps in
        let z = Builder.const_i b 0 in
        let one = Builder.const_i b 1 in
        let acc = Builder.const_f b 0.0 in
        (* Manually emit a for whose yield arity is wrong. *)
        let iv = Value.fresh Types.i32 in
        let it = Value.fresh (Value.ty acc) in
        let yield = Op.mk Op.Yield ~operands:[] in
        let blk = Op.block ~params:[ iv; it ] [ yield ] in
        let res = Value.fresh (Value.ty acc) in
        Builder.append b
          (Op.mk Op.For ~operands:[ z; n; one; acc ] ~results:[ res ]
             ~regions:[ Op.region [ blk ] ]))
  in
  match verify_result k with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "expected yield arity error"

(* The drop-init mutant deletes a used splat/iota/constant seed of a
   compiled GEMM and attention; the verifier's def-before-use rule is
   the check that rejects a read of a value no op defines. *)
let test_verifier_rejects_drop_init () =
  List.iter
    (fun (name, k) ->
      let k = (Tawa_core.Flow.compile k).Tawa_core.Flow.transformed in
      match Mutate.drop_init.Mutate.apply k with
      | None -> Alcotest.failf "drop-init does not apply to %s" name
      | Some mutant -> (
        match verify_result mutant with
        | Error msg ->
          Alcotest.(check bool) (name ^ ": names the undefined value") true
            (Astring.String.is_infix ~affix:"uses undefined value" msg)
        | Ok () -> Alcotest.failf "%s: the verifier accepts the drop-init mutant" name))
    [ ("gemm", Kernels.gemm ~tiles:small_tiles ());
      ("attention", Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ()) ]

(* The leak-value mutant makes the consumer release a slot through a
   value the producer partition defines. A warp-group region's
   definitions are out of scope in its siblings, so the verifier
   rejects the read on every warp-specialized shape: the compiled
   fine-pipelined GEMM, plainly partitioned GEMM and attention, and
   coarse-pipelined attention. *)
let test_verifier_rejects_leak_value () =
  let module Flow = Tawa_core.Flow in
  let compiled ?(coarse = false) k =
    (Flow.compile ~options:{ Flow.default_options with use_coarse = coarse } k).Flow.transformed
  in
  let plain k =
    let k = Kernel.clone k in
    ignore (Rewrite.canonicalize k);
    Tawa_passes.Partition.warp_specialize k
  in
  let attention () = Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 () in
  List.iter
    (fun (name, k) ->
      match Mutate.leak_value.Mutate.apply k with
      | None -> Alcotest.failf "leak-value does not apply to %s" name
      | Some mutant -> (
        match verify_result mutant with
        | Error msg ->
          Alcotest.(check bool) (name ^ ": names the undefined value") true
            (Astring.String.is_infix ~affix:"uses undefined value" msg)
        | Ok () -> Alcotest.failf "%s: the verifier accepts the leak-value mutant" name))
    [ ("fine-gemm", compiled (Kernels.gemm ~tiles:small_tiles ()));
      ("plain-gemm", plain (Kernels.gemm ~tiles:small_tiles ()));
      ("plain-attention", plain (attention ()));
      ("coarse-attention", compiled ~coarse:true (attention ())) ]

(* ------------------------------------------------------------------ *)
(* Printer                                                            *)
(* ------------------------------------------------------------------ *)

let test_printer_output () =
  let k = Kernels.gemm ~tiles:small_tiles () in
  let s = Printer.kernel_to_string k in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Astring.String.is_infix ~affix:needle s))
    [ "kernel @matmul"; "tt.dot"; "scf.for"; "tt.descriptor_load"; "scf.yield";
      "tensor<16x16xf32>"; "tt.program_id" ]

let test_printer_attention () =
  let k = Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ~causal:true () in
  let s = Printer.kernel_to_string k in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true
        (Astring.String.is_infix ~affix:needle s))
    [ "tt.reduce_max"; "tt.reduce_sum"; "math.exp"; "arith.select"; "tt.trans" ]

(* ------------------------------------------------------------------ *)
(* Graph                                                              *)
(* ------------------------------------------------------------------ *)

let test_graph_users_and_defs () =
  let k = Kernels.gemm ~tiles:small_tiles () in
  let g = Graph.build k.Kernel.body in
  (* Every dot's accumulator operand is defined by a block param or op. *)
  Op.iter_region
    (fun op ->
      match op.Op.opcode with
      | Op.Dot ->
        let a = List.nth op.Op.operands 0 in
        (match Graph.def g a with
        | Some def_op ->
          Alcotest.(check string) "a comes from tma load" "tt.descriptor_load"
            (Op.opcode_name def_op.Op.opcode)
        | None -> Alcotest.fail "dot input has no defining op")
      | _ -> ())
    k.Kernel.body

let test_slice () =
  let k = Kernels.gemm ~tiles:small_tiles () in
  let g = Graph.build k.Kernel.body in
  (* Slice rooted at the TMA loads' offsets: must include program_id and
     multiplications but no dot. *)
  let loads = ref [] in
  Op.iter_region
    (fun op ->
      match op.Op.opcode with
      | Op.Tma_load -> loads := op :: !loads
      | _ -> ())
    k.Kernel.body;
  Alcotest.(check int) "two loads" 2 (List.length !loads);
  let roots = List.concat_map (fun (op : Op.op) -> op.Op.operands) !loads in
  let slice = Graph.slice g roots in
  let names = List.map (fun (op : Op.op) -> Op.opcode_name op.Op.opcode) slice in
  Alcotest.(check bool) "includes pid" true (List.mem "tt.program_id" names);
  Alcotest.(check bool) "includes mul" true (List.mem "arith.mul" names);
  Alcotest.(check bool) "excludes dot" false (List.mem "tt.dot" names);
  Alcotest.(check int) "each op once" (List.length slice)
    (List.length (List.sort_uniq compare (List.map (fun (op : Op.op) -> op.Op.oid) slice)));
  (* A stop op is kept, but the walk does not go past it: from the
     loads' results it reaches the loads and nothing else. *)
  let stopped =
    Graph.slice g
      ~stop:(fun op -> op.Op.opcode = Op.Tma_load)
      (List.concat_map (fun (op : Op.op) -> op.Op.results) !loads)
  in
  Alcotest.(check (list int)) "stops at the loads"
    (List.map (fun (op : Op.op) -> op.Op.oid) !loads)
    (List.map (fun (op : Op.op) -> op.Op.oid) stopped)

(* ------------------------------------------------------------------ *)
(* Rewrite                                                            *)
(* ------------------------------------------------------------------ *)

let test_dce_removes_dead_ops () =
  let k =
    Builder.kernel "dead" [ ("p", Types.ptr Dtype.F16); ("n", Types.i32) ] (fun b ps ->
        let p, n = match ps with [ p; n ] -> (p, n) | _ -> assert false in
        let c1 = Builder.const_i b 1 in
        let desc = Builder.make_tensor_desc b p ~sizes:[ n; n ] ~strides:[ n; c1 ] ~dtype:Dtype.F16 in
        let _dead = Builder.zeros b [ 4; 4 ] Dtype.F32 in
        let _dead2 = Builder.add b n n in
        let live = Builder.zeros b [ 4; 4 ] Dtype.F16 in
        Builder.tma_store b desc ~offsets:[ c1; c1 ] live)
  in
  let before = Kernel.count_ops k in
  let removed = Rewrite.dce_kernel k in
  Verifier.verify k;
  Alcotest.(check bool) "removed some" true (removed >= 2);
  Alcotest.(check int) "count dropped" (before - removed) (Kernel.count_ops k)

let test_dce_keeps_loop_carried () =
  let k = Kernels.gemm ~tiles:small_tiles () in
  let before = Kernel.count_ops k in
  let removed = Rewrite.dce_kernel k in
  Verifier.verify k;
  Alcotest.(check int) "gemm has no dead ops" before (Kernel.count_ops k + removed);
  Alcotest.(check int) "nothing removed" 0 removed

let test_canonicalize_folds_add_zero () =
  let k =
    Builder.kernel "fold" [ ("p", Types.ptr Dtype.F16); ("n", Types.i32) ] (fun b ps ->
        let p, n = match ps with [ p; n ] -> (p, n) | _ -> assert false in
        let z = Builder.const_i b 0 in
        let c1 = Builder.const_i b 1 in
        let n' = Builder.add b n z in
        (* n + 0 *)
        let desc = Builder.make_tensor_desc b p ~sizes:[ n'; n' ] ~strides:[ n'; c1 ] ~dtype:Dtype.F16 in
        let t = Builder.zeros b [ 4; 4 ] Dtype.F16 in
        Builder.tma_store b desc ~offsets:[ z; z ] t)
  in
  let removed = Rewrite.canonicalize k in
  Verifier.verify k;
  Alcotest.(check bool) "folded add-zero" true (removed >= 1);
  (* The add op must be gone. *)
  let has_add = ref false in
  Op.iter_region
    (fun op -> match op.Op.opcode with Op.Binop Op.Add -> has_add := true | _ -> ())
    k.Kernel.body;
  Alcotest.(check bool) "no add left" false !has_add

let test_clone_region_freshens () =
  let k = Kernels.gemm ~tiles:small_tiles () in
  let clone, _map = Op.clone_region k.Kernel.body in
  let ids r = Op.fold_region (fun acc op -> op.Op.oid :: acc) [] r in
  let inter = List.filter (fun i -> List.mem i (ids k.Kernel.body)) (ids clone) in
  Alcotest.(check (list int)) "no shared op ids" [] inter;
  (* Cloned kernel must also verify. *)
  let k2 = Kernel.clone k in
  Verifier.verify k2;
  Alcotest.(check int) "same op count" (Kernel.count_ops k) (Kernel.count_ops k2)

(* ------------------------------------------------------------------ *)
(* Interpreter                                                        *)
(* ------------------------------------------------------------------ *)

let run_gemm_interp ~tiles ~dtype ~m ~n ~k () =
  let kern = Kernels.gemm ~tiles ~dtype () in
  Verifier.verify kern;
  let a = Tensor.random ~dtype ~seed:1 [| m; k |] in
  let b = Tensor.random ~dtype ~seed:2 [| k; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  let args =
    [ Interp.RTensor a; Interp.RTensor b; Interp.RTensor c; Interp.RInt m;
      Interp.RInt n; Interp.RInt k ]
  in
  let grid = (m / tiles.Kernels.block_m, n / tiles.Kernels.block_n, 1) in
  ignore (Interp.run_grid ~grid kern args);
  (c, Reference.gemm ~out_dtype:Dtype.F16 a b)

let test_interp_gemm_matches_reference () =
  let got, want = run_gemm_interp ~tiles:small_tiles ~dtype:Dtype.F16 ~m:32 ~n:32 ~k:24 () in
  Alcotest.(check bool) "gemm == reference" true (Tensor.max_rel_diff got want < 1e-3)

let test_interp_gemm_fp8 () =
  let got, want =
    run_gemm_interp ~tiles:small_tiles ~dtype:Dtype.F8E4M3 ~m:16 ~n:16 ~k:16 ()
  in
  Alcotest.(check bool) "fp8 gemm == reference" true (Tensor.max_rel_diff got want < 1e-2)

let test_interp_gemm_rectangular_grid () =
  let got, want = run_gemm_interp ~tiles:small_tiles ~dtype:Dtype.F16 ~m:48 ~n:16 ~k:8 () in
  Alcotest.(check bool) "rect grid" true (Tensor.max_rel_diff got want < 1e-3)

let test_interp_attention_matches_reference () =
  List.iter
    (fun causal ->
      let l = 32 and d = 8 in
      let bm = 16 and bn = 16 in
      let kern = Kernels.attention ~block_m:bm ~block_n:bn ~head_dim:d ~causal () in
      Verifier.verify kern;
      let q = Tensor.random ~dtype:Dtype.F16 ~seed:11 [| l; d |] in
      let k = Tensor.random ~dtype:Dtype.F16 ~seed:12 [| l; d |] in
      let v = Tensor.random ~dtype:Dtype.F16 ~seed:13 [| l; d |] in
      let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
      let args =
        [ Interp.RTensor q; Interp.RTensor k; Interp.RTensor v; Interp.RTensor o;
          Interp.RInt l ]
      in
      ignore (Interp.run_grid ~grid:(l / bm, 1, 1) kern args);
      let want = Reference.attention ~causal ~out_dtype:Dtype.F16 ~q ~k ~v () in
      Alcotest.(check bool)
        (Printf.sprintf "attention(causal=%b) == reference" causal)
        true
        (Tensor.max_rel_diff o want < 2e-2))
    [ false; true ]

let test_interp_batched_gemm () =
  let tiles = small_tiles in
  let m = 16 and n = 16 and k = 16 and batch = 3 in
  let kern = Kernels.batched_gemm ~tiles () in
  Verifier.verify kern;
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:5 [| batch * m; k |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:6 [| batch * k; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| batch * m; n |] in
  let args =
    [ Interp.RTensor a; Interp.RTensor b; Interp.RTensor c; Interp.RInt m;
      Interp.RInt n; Interp.RInt k; Interp.RInt batch ]
  in
  ignore (Interp.run_grid ~grid:(m / tiles.Kernels.block_m, n / tiles.Kernels.block_n, batch) kern args);
  (* Check each batch against the reference. *)
  for bi = 0 to batch - 1 do
    let ab = Tensor.slice2 a ~r0:(bi * m) ~c0:0 ~rows:m ~cols:k in
    let bb = Tensor.slice2 b ~r0:(bi * k) ~c0:0 ~rows:k ~cols:n in
    let want = Reference.gemm ~out_dtype:Dtype.F16 ab bb in
    let got = Tensor.slice2 ~dtype:Dtype.F16 c ~r0:(bi * m) ~c0:0 ~rows:m ~cols:n in
    Alcotest.(check bool)
      (Printf.sprintf "batch %d" bi)
      true
      (Tensor.max_rel_diff got want < 1e-3)
  done

let test_interp_gemm_bias_relu () =
  let tiles = small_tiles in
  let m = 16 and n = 16 and k = 16 in
  let kern = Kernels.gemm_bias_relu ~tiles () in
  Verifier.verify kern;
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:7 [| m; k |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:8 [| k; n |] in
  let bias = Tensor.random ~seed:9 [| 1; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  let args =
    [ Interp.RTensor a; Interp.RTensor b; Interp.RTensor bias; Interp.RTensor c;
      Interp.RInt m; Interp.RInt n; Interp.RInt k ]
  in
  ignore (Interp.run_grid ~grid:(1, 1, 1) kern args);
  let base = Reference.gemm ~out_dtype:Dtype.F32 a b in
  let want = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      Tensor.set2 want i j (Float.max 0.0 (Tensor.get2 base i j +. Tensor.get2 bias 0 j))
    done
  done;
  Alcotest.(check bool) "bias+relu" true (Tensor.max_rel_diff c want < 1e-3)

let test_interp_fuel () =
  let kern = Kernels.gemm ~tiles:small_tiles () in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| 16; 8 |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| 8; 16 |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| 16; 16 |] in
  let args =
    [ Interp.RTensor a; Interp.RTensor b; Interp.RTensor c; Interp.RInt 16;
      Interp.RInt 16; Interp.RInt 8 ]
  in
  Alcotest.check_raises "fuel exhausts"
    (Interp.Runtime_error "interpreter fuel exhausted")
    (fun () -> ignore (Interp.run_grid ~fuel:3 ~grid:(1, 1, 1) kern args))

let prop_interp_gemm_random_shapes =
  QCheck.Test.make ~name:"interp gemm == reference over random shapes" ~count:12
    QCheck.(triple (int_range 1 3) (int_range 1 3) (int_range 1 4))
    (fun (gm, gn, kk) ->
      let tiles = { Kernels.block_m = 8; block_n = 8; block_k = 8 } in
      let m = gm * 8 and n = gn * 8 and k = kk * 8 in
      let got, want = run_gemm_interp ~tiles ~dtype:Dtype.F16 ~m ~n ~k () in
      Tensor.max_rel_diff got want < 1e-3)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "ir.types",
      [
        Alcotest.test_case "to_string" `Quick test_type_strings;
        Alcotest.test_case "equal" `Quick test_type_equal;
        Alcotest.test_case "sizes" `Quick test_type_sizes;
      ] );
    ( "ir.build+verify",
      [
        Alcotest.test_case "gemm verifies" `Quick test_build_gemm_verifies;
        Alcotest.test_case "attention verifies" `Quick test_build_attention_verifies;
        Alcotest.test_case "all kernels verify" `Quick test_build_all_kernels_verify;
        Alcotest.test_case "rejects zero-size tiles" `Quick test_build_rejects_zero_size_tiles;
        Alcotest.test_case "rejects undefined use" `Quick test_verifier_rejects_undefined_use;
        Alcotest.test_case "rejects bad dot" `Quick test_verifier_rejects_bad_dot;
        Alcotest.test_case "rejects double def" `Quick test_verifier_rejects_double_def;
        Alcotest.test_case "rejects bad yield" `Quick test_verifier_rejects_bad_yield_arity;
        Alcotest.test_case "rejects the drop-init mutant" `Quick
          test_verifier_rejects_drop_init;
        Alcotest.test_case "rejects the leak-value mutant" `Quick
          test_verifier_rejects_leak_value;
      ] );
    ( "ir.printer",
      [
        Alcotest.test_case "gemm text" `Quick test_printer_output;
        Alcotest.test_case "attention text" `Quick test_printer_attention;
      ] );
    ( "ir.graph",
      [
        Alcotest.test_case "users/defs" `Quick test_graph_users_and_defs;
        Alcotest.test_case "backward slice" `Quick test_slice;
      ] );
    ( "ir.rewrite",
      [
        Alcotest.test_case "dce removes dead" `Quick test_dce_removes_dead_ops;
        Alcotest.test_case "dce keeps live" `Quick test_dce_keeps_loop_carried;
        Alcotest.test_case "canonicalize add 0" `Quick test_canonicalize_folds_add_zero;
        Alcotest.test_case "clone freshens" `Quick test_clone_region_freshens;
      ] );
    ( "ir.interp",
      [
        Alcotest.test_case "gemm f16" `Quick test_interp_gemm_matches_reference;
        Alcotest.test_case "gemm fp8" `Quick test_interp_gemm_fp8;
        Alcotest.test_case "gemm rect grid" `Quick test_interp_gemm_rectangular_grid;
        Alcotest.test_case "attention" `Quick test_interp_attention_matches_reference;
        Alcotest.test_case "batched gemm" `Quick test_interp_batched_gemm;
        Alcotest.test_case "gemm bias relu" `Quick test_interp_gemm_bias_relu;
        Alcotest.test_case "fuel" `Quick test_interp_fuel;
      ] );
    qsuite "ir.interp.props" [ prop_interp_gemm_random_shapes ];
  ]
