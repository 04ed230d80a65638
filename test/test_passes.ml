(* Tests for the Tawa passes: partition annotation, warp specialization
   (loop distribution + aref insertion + tuple grouping), fine-grained
   MMA pipelining, the coarse pipeline's T/C/U stamps, and the pass
   manager. The key invariant throughout: every transformed kernel
   verifies AND computes exactly what the original computed (checked via
   the sequential interpreter). *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_passes

let small_tiles = { Kernels.block_m = 16; block_n = 16; block_k = 8 }

let find_loop k =
  match Partition.find_pipeline_loop k with
  | Some l -> l
  | None -> Alcotest.fail "no pipeline loop"

let count_opcode_region pred (r : Op.region) =
  Op.fold_region (fun n op -> if pred op then n + 1 else n) 0 r

let wg_of k =
  match Kernel.find_warp_group k with
  | Some wg -> wg
  | None -> Alcotest.fail "kernel not warp specialized"

(* ------------------------------------------------------------------ *)
(* Annotation                                                         *)
(* ------------------------------------------------------------------ *)

let test_classify_gemm () =
  let k = Kernels.gemm ~tiles:small_tiles () in
  let loop = find_loop k in
  let cls = Annotate.classify loop in
  Alcotest.(check int) "two loads" 2 (List.length cls.Annotate.loads);
  let tile = Annotate.tile_ops cls loop in
  let tile_names = List.map (fun (o : Op.op) -> Op.opcode_name o.Op.opcode) tile in
  Alcotest.(check bool) "dot is tile stmt" true (List.mem "tt.dot" tile_names);
  Alcotest.(check bool) "loads are not tile stmts" false
    (List.mem "tt.descriptor_load" tile_names);
  let iter = Annotate.iteration_ops cls loop in
  let iter_names = List.map (fun (o : Op.op) -> Op.opcode_name o.Op.opcode) iter in
  Alcotest.(check bool) "loads are iteration stmts" true
    (List.mem "tt.descriptor_load" iter_names);
  Alcotest.(check bool) "dot not iteration" false (List.mem "tt.dot" iter_names)

let test_classify_attention_address_math () =
  let k = Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 () in
  let loop = find_loop k in
  let cls = Annotate.classify loop in
  Alcotest.(check int) "K and V loads" 2 (List.length cls.Annotate.loads);
  (* Softmax arithmetic must be tile statements. *)
  List.iter
    (fun (op : Op.op) ->
      match op.Op.opcode with
      | Op.Unop Op.Exp | Op.Reduce _ | Op.Dot ->
        Alcotest.(check bool)
          (Op.opcode_name op.Op.opcode ^ " is tile")
          true
          (Annotate.class_of cls op = Annotate.Tile)
      | _ -> ())
    (Annotate.body_ops loop)

(* ------------------------------------------------------------------ *)
(* Warp specialization: structure                                      *)
(* ------------------------------------------------------------------ *)

let ws ?(depth = 2) k =
  Partition.warp_specialize ~options:{ Options.default_options with aref_depth = depth } k

let test_ws_gemm_structure () =
  let k = ws (Kernels.gemm ~tiles:small_tiles ()) in
  Verifier.verify k;
  Alcotest.(check bool) "specialized" true (Kernel.is_warp_specialized k);
  let wg = wg_of k in
  Alcotest.(check int) "two regions" 2 (List.length wg.Op.regions);
  let producer = List.nth wg.Op.regions 0 and consumer = List.nth wg.Op.regions 1 in
  (* Producer: loads + puts, no dots, no stores. *)
  Alcotest.(check int) "producer loads" 2
    (count_opcode_region (fun o -> o.Op.opcode = Op.Tma_load) producer);
  Alcotest.(check int) "producer puts" 1
    (count_opcode_region (fun o -> o.Op.opcode = Op.Aref_put) producer);
  Alcotest.(check int) "producer has no dot" 0
    (count_opcode_region (fun o -> o.Op.opcode = Op.Dot) producer);
  Alcotest.(check int) "producer has no store" 0
    (count_opcode_region (fun o -> o.Op.opcode = Op.Tma_store) producer);
  (* Consumer: get/dot/consumed + epilogue store, no loop loads. *)
  Alcotest.(check int) "consumer gets" 1
    (count_opcode_region (fun o -> o.Op.opcode = Op.Aref_get) consumer);
  Alcotest.(check int) "consumer dot" 1
    (count_opcode_region (fun o -> o.Op.opcode = Op.Dot) consumer);
  Alcotest.(check int) "consumer consumed" 1
    (count_opcode_region (fun o -> o.Op.opcode = Op.Aref_consumed) consumer);
  Alcotest.(check int) "consumer store (epilogue)" 1
    (count_opcode_region (fun o -> o.Op.opcode = Op.Tma_store) consumer);
  Alcotest.(check int) "consumer has no TMA load" 0
    (count_opcode_region (fun o -> o.Op.opcode = Op.Tma_load) consumer)

let test_ws_gemm_tuple_grouping () =
  (* A and B feed the same dot -> one aref carrying a tuple of two. *)
  let k = ws (Kernels.gemm ~tiles:small_tiles ()) in
  let arefs =
    Op.fold_region
      (fun acc op ->
        match op.Op.opcode with Op.Aref_create _ -> op :: acc | _ -> acc)
      [] k.Kernel.body
  in
  Alcotest.(check int) "one aref for gemm" 1 (List.length arefs);
  match Value.ty (List.hd (List.hd arefs).Op.results) with
  | Types.TAref { payload; depth } ->
    Alcotest.(check int) "tuple of two tiles" 2 (List.length payload);
    Alcotest.(check int) "depth" 2 depth;
    List.iter
      (fun ty -> Alcotest.(check bool) "payload staged in smem" true (Types.is_memdesc ty))
      payload
  | _ -> Alcotest.fail "not an aref type"

let test_ws_attention_two_arefs () =
  (* K feeds QK^T, V feeds PV: two separate channels. *)
  let k = ws (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ()) in
  Verifier.verify k;
  let arefs =
    Op.fold_region
      (fun acc op ->
        match op.Op.opcode with Op.Aref_create _ -> op :: acc | _ -> acc)
      [] k.Kernel.body
  in
  Alcotest.(check int) "two arefs for attention" 2 (List.length arefs);
  List.iter
    (fun (a : Op.op) ->
      match Value.ty (List.hd a.Op.results) with
      | Types.TAref { payload; _ } ->
        Alcotest.(check int) "single-payload channels" 1 (List.length payload)
      | _ -> Alcotest.fail "not an aref")
    arefs

let test_ws_sinks_prologue () =
  (* The Q load (used only by the consumer) must sink into the consumer
     region rather than execute in both warp groups. *)
  let k = ws (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ()) in
  let wg = wg_of k in
  let producer = List.nth wg.Op.regions 0 and consumer = List.nth wg.Op.regions 1 in
  let loads_in r = count_opcode_region (fun o -> o.Op.opcode = Op.Tma_load) r in
  (* K and V tile loads in the producer loop; the Q load in the consumer. *)
  Alcotest.(check int) "producer has K,V loads" 2 (loads_in producer);
  Alcotest.(check int) "consumer has Q load" 1 (loads_in consumer);
  (* Top level retains no loads. *)
  let top_loads =
    List.length
      (List.filter
         (fun (o : Op.op) -> o.Op.opcode = Op.Tma_load)
         (Kernel.entry k).Op.ops)
  in
  Alcotest.(check int) "no top-level loads" 0 top_loads

let test_ws_not_applicable_without_loop () =
  let k =
    Builder.kernel "noloop" [ ("p", Types.ptr Dtype.F16); ("n", Types.i32) ] (fun b ps ->
        let p, n = match ps with [ p; n ] -> (p, n) | _ -> assert false in
        let c1 = Builder.const_i b 1 in
        let d = Builder.make_tensor_desc b p ~sizes:[ n; n ] ~strides:[ n; c1 ] ~dtype:Dtype.F16 in
        let t = Builder.zeros b [ 4; 4 ] Dtype.F16 in
        Builder.tma_store b d ~offsets:[ c1; c1 ] t)
  in
  match ws k with
  | _ -> Alcotest.fail "expected Not_applicable"
  | exception Pass.Not_applicable _ -> ()

let test_ws_depths () =
  List.iter
    (fun d ->
      let k = ws ~depth:d (Kernels.gemm ~tiles:small_tiles ()) in
      Verifier.verify k;
      let depths =
        Op.fold_region
          (fun acc op -> match op.Op.opcode with Op.Aref_create n -> n :: acc | _ -> acc)
          [] k.Kernel.body
      in
      Alcotest.(check bool) "every aref_create has depth D" true
        (depths <> [] && List.for_all (( = ) d) depths))
    [ 1; 2; 3; 4 ]

(* ------------------------------------------------------------------ *)
(* Warp specialization: semantics preservation                         *)
(* ------------------------------------------------------------------ *)

let run_gemm kernel ~tiles ~dtype ~m ~n ~k =
  let a = Tensor.random ~dtype ~seed:1 [| m; k |] in
  let b = Tensor.random ~dtype ~seed:2 [| k; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  let args =
    [ Interp.RTensor a; Interp.RTensor b; Interp.RTensor c; Interp.RInt m;
      Interp.RInt n; Interp.RInt k ]
  in
  ignore
    (Interp.run_grid
       ~grid:(m / tiles.Kernels.block_m, n / tiles.Kernels.block_n, 1)
       kernel args);
  c

let test_ws_gemm_preserves_semantics () =
  let tiles = small_tiles in
  let m = 32 and n = 32 and kk = 24 in
  let orig = Kernels.gemm ~tiles () in
  List.iter
    (fun depth ->
      let spec = ws ~depth orig in
      let c0 = run_gemm orig ~tiles ~dtype:Dtype.F16 ~m ~n ~k:kk in
      let c1 = run_gemm spec ~tiles ~dtype:Dtype.F16 ~m ~n ~k:kk in
      Alcotest.(check bool)
        (Printf.sprintf "ws(D=%d) == original" depth)
        true
        (Tensor.max_abs_diff c0 c1 = 0.0))
    [ 1; 2; 3 ]

let run_attention kernel ~bm ~l ~d ~seed =
  let q = Tensor.random ~dtype:Dtype.F16 ~seed [| l; d |] in
  let kt = Tensor.random ~dtype:Dtype.F16 ~seed:(seed + 1) [| l; d |] in
  let v = Tensor.random ~dtype:Dtype.F16 ~seed:(seed + 2) [| l; d |] in
  let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  let args =
    [ Interp.RTensor q; Interp.RTensor kt; Interp.RTensor v; Interp.RTensor o;
      Interp.RInt l ]
  in
  ignore (Interp.run_grid ~grid:(l / bm, 1, 1) kernel args);
  o

let test_ws_attention_preserves_semantics () =
  List.iter
    (fun causal ->
      let bm = 16 and l = 32 and d = 8 in
      let orig = Kernels.attention ~block_m:bm ~block_n:16 ~head_dim:d ~causal () in
      let spec = ws orig in
      let o0 = run_attention orig ~bm ~l ~d ~seed:31 in
      let o1 = run_attention spec ~bm ~l ~d ~seed:31 in
      Alcotest.(check bool)
        (Printf.sprintf "ws attention (causal=%b)" causal)
        true
        (Tensor.max_abs_diff o0 o1 = 0.0))
    [ false; true ]

let test_ws_gemm_bias_relu_preserves_semantics () =
  let tiles = small_tiles in
  let m = 16 and n = 16 and kk = 16 in
  let orig = Kernels.gemm_bias_relu ~tiles () in
  let spec = ws orig in
  Verifier.verify spec;
  let run kernel =
    let a = Tensor.random ~dtype:Dtype.F16 ~seed:7 [| m; kk |] in
    let b = Tensor.random ~dtype:Dtype.F16 ~seed:8 [| kk; n |] in
    let bias = Tensor.random ~seed:9 [| 1; n |] in
    let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
    ignore
      (Interp.run_grid ~grid:(1, 1, 1) kernel
         [ Interp.RTensor a; Interp.RTensor b; Interp.RTensor bias; Interp.RTensor c;
           Interp.RInt m; Interp.RInt n; Interp.RInt kk ]);
    c
  in
  Alcotest.(check bool) "bias-relu preserved" true
    (Tensor.max_abs_diff (run orig) (run spec) = 0.0)

(* ------------------------------------------------------------------ *)
(* Fine-grained pipelining                                             *)
(* ------------------------------------------------------------------ *)

let test_fine_structure () =
  let spec = ws ~depth:3 (Kernels.gemm ~tiles:small_tiles ()) in
  let piped = Pipeline_fine.apply ~mma_depth:2 spec in
  Verifier.verify piped;
  let wg = wg_of piped in
  let consumer = List.nth wg.Op.regions 1 in
  Alcotest.(check int) "dot replaced by issue" 0
    (count_opcode_region (fun o -> o.Op.opcode = Op.Dot) consumer);
  Alcotest.(check bool) "has wgmma_issue" true
    (count_opcode_region (fun o -> o.Op.opcode = Op.Wgmma_issue) consumer = 1);
  (* wait(P-1) in the loop, wait(0) in the drain. *)
  Alcotest.(check int) "bounded wait" 1
    (count_opcode_region (fun o -> o.Op.opcode = Op.Wgmma_wait 1) consumer);
  Alcotest.(check int) "drain wait" 1
    (count_opcode_region (fun o -> o.Op.opcode = Op.Wgmma_wait 0) consumer);
  (* Guarded release inside an scf.if. *)
  Alcotest.(check bool) "guarded release" true
    (count_opcode_region (fun o -> o.Op.opcode = Op.If) consumer >= 1)

let test_fine_rejects_p_gt_d () =
  let spec = ws ~depth:2 (Kernels.gemm ~tiles:small_tiles ()) in
  match Pipeline_fine.apply ~mma_depth:3 spec with
  | _ -> Alcotest.fail "expected infeasible D < P rejection"
  | exception Pass.Not_applicable msg ->
    Alcotest.(check bool) "mentions feasibility" true
      (Astring.String.is_infix ~affix:"D >= P" msg)

let test_fine_preserves_semantics () =
  let tiles = small_tiles in
  let m = 32 and n = 16 and kk = 40 in
  let orig = Kernels.gemm ~tiles () in
  List.iter
    (fun (d, p) ->
      let piped = Pipeline_fine.apply ~mma_depth:p (ws ~depth:d orig) in
      Verifier.verify piped;
      let c0 = run_gemm orig ~tiles ~dtype:Dtype.F16 ~m ~n ~k:kk in
      let c1 = run_gemm piped ~tiles ~dtype:Dtype.F16 ~m ~n ~k:kk in
      Alcotest.(check bool)
        (Printf.sprintf "fine(D=%d,P=%d) == original" d p)
        true
        (Tensor.max_abs_diff c0 c1 = 0.0))
    [ (1, 1); (2, 1); (2, 2); (3, 2); (4, 3) ]

let prop_fine_random_configs =
  QCheck.Test.make ~name:"warp spec + fine pipeline preserve gemm" ~count:10
    QCheck.(triple (int_range 1 4) (int_range 1 4) (int_range 1 5))
    (fun (d, p, ksteps) ->
      QCheck.assume (d >= p);
      let tiles = { Kernels.block_m = 8; block_n = 8; block_k = 8 } in
      let m = 16 and n = 16 and kk = 8 * ksteps in
      let orig = Kernels.gemm ~tiles () in
      let piped = Pipeline_fine.apply ~mma_depth:p (ws ~depth:d orig) in
      let c0 = run_gemm orig ~tiles ~dtype:Dtype.F16 ~m ~n ~k:kk in
      let c1 = run_gemm piped ~tiles ~dtype:Dtype.F16 ~m ~n ~k:kk in
      Tensor.max_abs_diff c0 c1 = 0.0)

(* ------------------------------------------------------------------ *)
(* Coarse pipeline annotation                                          *)
(* ------------------------------------------------------------------ *)

let coarse_loop k =
  match
    Op.fold_region
      (fun acc op ->
        if op.Op.opcode = Op.For && Op.attr_bool op "coarse_pipeline" = Some true then
          Some op
        else acc)
      None k.Kernel.body
  with
  | Some loop -> loop
  | None -> Alcotest.fail "no coarse-annotated loop"

let stage_of (o : Op.op) = Option.value (Op.attr_string o "stage") ~default:"C"

let test_coarse_annotates_attention () =
  let spec = ws (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ()) in
  let coarse = Pipeline_coarse.apply spec in
  Verifier.verify coarse;
  let body = Op.entry_block (List.hd (coarse_loop coarse).Op.regions) in
  let staged opcode =
    List.filter_map
      (fun (o : Op.op) -> if o.Op.opcode = opcode then Some (stage_of o) else None)
      body.Op.ops
  in
  (* T = QK^T with the K get, U = PV with the V get; the softmax is C. *)
  Alcotest.(check (list string)) "dots" [ "T"; "U" ] (staged Op.Dot);
  Alcotest.(check (list string)) "gets" [ "T"; "U" ] (staged Op.Aref_get);
  Alcotest.(check bool) "exp is C" true
    (List.for_all (( = ) "C") (staged (Op.Unop Op.Exp)));
  (* Semantics unchanged by annotation. *)
  let o0 = run_attention spec ~bm:16 ~l:32 ~d:8 ~seed:51 in
  let o1 = run_attention coarse ~bm:16 ~l:32 ~d:8 ~seed:51 in
  Alcotest.(check bool) "annotation is semantics-neutral" true
    (Tensor.max_abs_diff o0 o1 = 0.0)

(* The stamps are the split code generation emits: T is emitted twice
   (the prologue issues T_0, the steady state T_{j+1}), C and U once.
   Every loop-body op that emits instructions is stamped T exactly when
   its instructions come in two runs of the consumer stream's srcmap;
   QK^T's zero accumulator is one of them. *)
let test_coarse_stamps_what_codegen_emits () =
  List.iter
    (fun causal ->
      let options = { Manager.default_options with use_coarse = true } in
      let k =
        (Manager.compile ~options
           (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ~causal ()))
          .Manager.kernel
      in
      let program = Tawa_machine.Codegen.lower k in
      let srcmap =
        Tawa_machine.Isa.srcmap program (List.length program.Tawa_machine.Isa.streams - 1)
      in
      let runs oid =
        let n = ref 0 in
        Array.iteri
          (fun pc o -> if o = oid && (pc = 0 || srcmap.(pc - 1) <> oid) then incr n)
          srcmap;
        !n
      in
      let body = Op.entry_block (List.hd (coarse_loop k).Op.regions) in
      let t_dot = List.find (fun (o : Op.op) -> o.Op.opcode = Op.Dot) body.Op.ops in
      let zero_acc =
        List.find
          (fun (o : Op.op) -> List.exists (Value.equal (List.nth t_dot.Op.operands 2)) o.Op.results)
          body.Op.ops
      in
      Alcotest.(check string) "QK^T's zero accumulator is T" "T" (stage_of zero_acc);
      List.iter
        (fun (o : Op.op) ->
          match runs o.Op.oid with
          | 0 -> ()
          | n ->
            Alcotest.(check string)
              (Printf.sprintf "causal=%b %s emitted %d time(s)" causal
                 (Op.opcode_name o.Op.opcode) n)
              (if n = 2 then "T" else "C or U")
              (match stage_of o with "T" -> "T" | _ -> "C or U"))
        body.Op.ops)
    [ false; true ]

(* A loop the assembly line cannot lower is left to the fine pipeline's
   fallback: the pass does not apply, and the kernel compiles
   warp-specialized without it. [loop] is the body of a 16x16-tile
   attention loop over K (kt) and, unless [v_before] loads it once
   before the loop, V (vt). *)
let expect_coarse_skipped ?(v_before = false) ~carried loop =
  let src =
    Printf.sprintf
      {|kernel attention(q: ptr<f16>, k: ptr<f16>, v: ptr<f16>, o: ptr<f16>, L: i32) {
  dq = descriptor(q, [L, 8], [8, 1]);
  dk = descriptor(k, [L, 8], [8, 1]);
  dv = descriptor(v, [L, 8], [8, 1]);
  do_ = descriptor(o, [L, 8], [8, 1]);
  offs_m = program_id(0) * 16;
  qt = load(dq, [offs_m, 0], [16, 8]);
  %s
  acc = zeros([16, 8], f32);
  s = zeros([16, 16], f32);
  for n in 0 .. L step 16 with (%s) {
    kt = load(dk, [n, 0], [16, 8]);
    %s
  }
  store(do_, [offs_m, 0], cast(acc, f16));
}|}
      (if v_before then "vt = load(dv, [0, 0], [16, 8]);" else "")
      carried loop
  in
  let k = List.hd (Elaborate.compile_string src) in
  (match Pipeline_coarse.apply (ws k) with
  | _ -> Alcotest.fail "expected Not_applicable"
  | exception Pass.Not_applicable _ -> ());
  let c =
    Tawa_core.Flow.compile
      ~options:{ Tawa_core.Flow.default_options with use_coarse = true }
      k
  in
  Alcotest.(check bool) "warp-specialized" true c.Tawa_core.Flow.warp_specialized;
  Alcotest.(check bool) "no coarse pipeline" false c.Tawa_core.Flow.coarse

(* With V loaded before the loop, U reads no channel of its own. *)
let test_coarse_skips_v_outside_loop () =
  expect_coarse_skipped ~v_before:true ~carried:"acc"
    {|s = dot(qt, trans(kt), zeros([16, 16], f32));
    acc = dot(cast(exp(s), f16), vt, acc);|}

(* The schedule issues T_{j+1} before C_j, binds only T's result past
   T, and acquires V just before U: a T accumulating into a carried
   tile, a C op reading the K tile and one reading the V tile each
   break it (codegen would meet the last two tiles unbound). *)
let test_coarse_skips_unlowerable () =
  List.iter
    (fun (carried, loop) -> expect_coarse_skipped ~carried loop)
    [ ( "acc, s",
        {|s = dot(qt, trans(kt), s);
    vt = load(dv, [n, 0], [16, 8]);
    acc = dot(cast(exp(s), f16), vt, acc);|} );
      ( "acc",
        {|s = dot(qt, trans(kt), zeros([16, 16], f32));
    vt = load(dv, [n, 0], [16, 8]);
    acc = dot(cast(exp(s), f16), vt, acc + cast(kt, f32));|} );
      ( "acc",
        {|s = dot(qt, trans(kt), zeros([16, 16], f32));
    vt = load(dv, [n, 0], [16, 8]);
    acc = dot(cast(exp(s), f16), vt, acc + cast(vt, f32));|} ) ]

let test_coarse_rejects_gemm () =
  let spec = ws (Kernels.gemm ~tiles:small_tiles ()) in
  match Pipeline_coarse.apply spec with
  | _ -> Alcotest.fail "expected Not_applicable for single-dot loop"
  | exception Pass.Not_applicable _ -> ()

(* ------------------------------------------------------------------ *)
(* Pass manager                                                        *)
(* ------------------------------------------------------------------ *)

let test_manager_gemm () =
  let r = Manager.compile (Kernels.gemm ~tiles:small_tiles ()) in
  Alcotest.(check bool) "ws applied" true r.Manager.warp_specialized;
  Alcotest.(check bool) "coarse not applied" false r.Manager.coarse;
  Verifier.verify r.Manager.kernel

let test_manager_attention_coarse () =
  let options = { Manager.default_options with use_coarse = true } in
  let r =
    Manager.compile ~options (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ())
  in
  Alcotest.(check bool) "ws applied" true r.Manager.warp_specialized;
  Alcotest.(check bool) "coarse applied" true r.Manager.coarse;
  Verifier.verify r.Manager.kernel

let test_manager_degrades_gracefully () =
  let k =
    Builder.kernel "scalar_only" [ ("n", Types.i32) ] (fun b ps ->
        let n = List.hd ps in
        ignore (Builder.add b n n))
  in
  let r = Manager.compile k in
  Alcotest.(check bool) "not specialized" false r.Manager.warp_specialized;
  Verifier.verify r.Manager.kernel

let test_manager_end_to_end_semantics () =
  let tiles = small_tiles in
  let m = 32 and n = 32 and kk = 24 in
  let orig = Kernels.gemm ~tiles () in
  let options =
    { Manager.default_options with aref_depth = 3; mma_depth = 2; persistent = true }
  in
  let r = Manager.compile ~options orig in
  let c0 = run_gemm orig ~tiles ~dtype:Dtype.F16 ~m ~n ~k:kk in
  let c1 = run_gemm r.Manager.kernel ~tiles ~dtype:Dtype.F16 ~m ~n ~k:kk in
  Alcotest.(check bool) "manager output == original" true
    (Tensor.max_abs_diff c0 c1 = 0.0)

(* Every strategy's passes run in the manager: the software pipeline
   stamps its stage count, the synchronous-TMA build is the kernel as
   written, and the naive build stamps the register-load style. None
   of them is warp-specialized. *)
let test_manager_baselines () =
  let kernel = Kernels.gemm ~tiles:small_tiles () in
  let compile strategy =
    let r = Manager.compile ~options:{ Manager.default_options with strategy } kernel in
    Alcotest.(check bool) (Manager.strategy_key strategy ^ " not specialized") false
      (r.Manager.warp_specialized || Kernel.is_warp_specialized r.Manager.kernel);
    r.Manager.kernel
  in
  Alcotest.(check (option int)) "sw3 stamps sw_stages" (Some 3)
    (Kernel.attr_int (compile (Manager.Sw_pipelined 3)) "sw_stages");
  Alcotest.(check bool) "sync is the kernel as written" true
    (compile Manager.Sync_tma == kernel);
  Alcotest.(check bool) "naive loads through registers" true
    (List.assoc_opt "load_style" (compile Manager.Naive).Kernel.attrs
     = Some (Op.Attr_string "ldg"))

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "passes.annotate",
      [
        Alcotest.test_case "classify gemm" `Quick test_classify_gemm;
        Alcotest.test_case "classify attention" `Quick test_classify_attention_address_math;
      ] );
    ( "passes.partition.structure",
      [
        Alcotest.test_case "gemm structure" `Quick test_ws_gemm_structure;
        Alcotest.test_case "tuple grouping" `Quick test_ws_gemm_tuple_grouping;
        Alcotest.test_case "attention two arefs" `Quick test_ws_attention_two_arefs;
        Alcotest.test_case "prologue sinking" `Quick test_ws_sinks_prologue;
        Alcotest.test_case "not applicable" `Quick test_ws_not_applicable_without_loop;
        Alcotest.test_case "depth attr" `Quick test_ws_depths;
      ] );
    ( "passes.partition.semantics",
      [
        Alcotest.test_case "gemm preserved" `Quick test_ws_gemm_preserves_semantics;
        Alcotest.test_case "attention preserved" `Quick test_ws_attention_preserves_semantics;
        Alcotest.test_case "bias-relu epilogue preserved" `Quick
          test_ws_gemm_bias_relu_preserves_semantics;
      ] );
    ( "passes.fine",
      [
        Alcotest.test_case "structure" `Quick test_fine_structure;
        Alcotest.test_case "rejects P > D" `Quick test_fine_rejects_p_gt_d;
        Alcotest.test_case "semantics preserved" `Quick test_fine_preserves_semantics;
      ] );
    qsuite "passes.fine.props" [ prop_fine_random_configs ];
    ( "passes.coarse",
      [
        Alcotest.test_case "annotates attention" `Quick test_coarse_annotates_attention;
        Alcotest.test_case "rejects gemm" `Quick test_coarse_rejects_gemm;
        Alcotest.test_case "stamps what codegen emits with T" `Quick
          test_coarse_stamps_what_codegen_emits;
        Alcotest.test_case "V before the loop: no coarse pipeline" `Quick
          test_coarse_skips_v_outside_loop;
        Alcotest.test_case "unlowerable T/C/U loops: no coarse pipeline" `Quick
          test_coarse_skips_unlowerable;
      ] );
    ( "passes.manager",
      [
        Alcotest.test_case "gemm flow" `Quick test_manager_gemm;
        Alcotest.test_case "attention coarse flow" `Quick test_manager_attention_coarse;
        Alcotest.test_case "degrades gracefully" `Quick test_manager_degrades_gracefully;
        Alcotest.test_case "end to end semantics" `Quick test_manager_end_to_end_semantics;
        Alcotest.test_case "baseline strategies" `Quick test_manager_baselines;
      ] );
  ]
