(* Arefcheck: the clean corpus (every kernel the compiler emits must
   pass), the mutation self-test harness (every seeded protocol break
   must be flagged with the right check), handcrafted deadlock and
   mbarrier cases, and the supporting plumbing (printer ids, the pass
   manager's output, diagnostic format). *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_analysis
open Tawa_core

let small_tiles = { Kernels.block_m = 16; block_n = 16; block_k = 8 }

let flow_opts ?(d = 2) ?(p = 2) ?(coop = 1) ?(persistent = false) ?(coarse = false) () =
  { Flow.default_options with aref_depth = d; mma_depth = p; num_consumer_wgs = coop; persistent;
    use_coarse = coarse }

let assert_no_errors what ds =
  match Diagnostic.errors ds with
  | [] -> ()
  | errs -> Alcotest.failf "%s flagged by arefcheck:\n%s" what (Diagnostic.report errs)

let assert_flagged ~check what ds =
  let errs = Diagnostic.errors ds in
  if not (List.exists (fun (d : Diagnostic.t) -> d.Diagnostic.check = check) errs) then
    Alcotest.failf "%s: expected an error from check %S, got:\n%s" what check
      (if ds = [] then "(no diagnostics)" else Diagnostic.report ds)

(* ------------------------- clean corpus --------------------------- *)

let check_flow what c = assert_no_errors what (Flow.check_compiled c)

let test_clean_frontend () =
  let gemm = Kernels.gemm ~tiles:small_tiles () in
  check_flow "gemm d2p2" (Flow.compile ~options:(flow_opts ()) gemm);
  check_flow "gemm d3p2" (Flow.compile ~options:(flow_opts ~d:3 ()) gemm);
  check_flow "gemm d4p3" (Flow.compile ~options:(flow_opts ~d:4 ~p:3 ()) gemm);
  check_flow "gemm coop2" (Flow.compile ~options:(flow_opts ~coop:2 ()) gemm);
  check_flow "gemm persistent" (Flow.compile ~options:(flow_opts ~persistent:true ()) gemm);
  check_flow "batched gemm" (Flow.compile ~options:(flow_opts ()) (Kernels.batched_gemm ~tiles:small_tiles ()));
  check_flow "gemm_bias_relu" (Flow.compile ~options:(flow_opts ()) (Kernels.gemm_bias_relu ~tiles:small_tiles ()));
  let attn = Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 () in
  check_flow "attention" (Flow.compile ~options:(flow_opts ()) attn);
  check_flow "attention coarse" (Flow.compile ~options:(flow_opts ~coarse:true ()) attn)

let test_clean_baselines () =
  let gemm = Kernels.gemm ~tiles:small_tiles () in
  check_flow "sw-pipelined gemm"
    (Flow.compile
       ~options:{ Flow.default_options with strategy = Flow.Sw_pipelined 3; aref_depth = 3 }
       gemm);
  check_flow "naive gemm"
    (Flow.compile ~options:{ Flow.default_options with strategy = Flow.Naive } gemm)

let test_clean_examples () =
  List.iter
    (fun name ->
      let path = Filename.concat Paths.examples_dir name in
      List.iter
        (fun k ->
          check_flow (name ^ " @" ^ k.Kernel.name) (Flow.compile ~options:(flow_opts ()) k))
        (Elaborate.compile_file path))
    [ "gemm.tw"; "gemm_bias_relu.tw"; "attention.tw" ]

let prop_fuzz_clean =
  QCheck.Test.make ~name:"arefcheck: fuzz corpus compiles clean (d2p2)" ~count:20
    Test_fuzz.arb_spec
    (fun s ->
      let c = Test_fuzz.ws_compile ~d:2 ~p:2 (Test_fuzz.build_kernel s) in
      Diagnostic.errors (Flow.check_compiled c) = [])

let prop_fuzz_clean_deep =
  QCheck.Test.make ~name:"arefcheck: fuzz corpus compiles clean (d4p3)" ~count:15
    Test_fuzz.arb_spec
    (fun s ->
      let c = Test_fuzz.ws_compile ~d:4 ~p:3 (Test_fuzz.build_kernel s) in
      Diagnostic.errors (Flow.check_compiled c) = [])

(* ----------------------- mutation harness ------------------------- *)

(* Known-good warp-specialized bases of different shapes: the fine
   pipeline's re-timed releases, plus plainly partitioned GEMM and
   attention (two channels). *)
let bases () =
  let plain k =
    let k = Kernel.clone k in
    ignore (Rewrite.canonicalize k);
    Tawa_passes.Partition.warp_specialize k
  in
  [ ("fine-gemm",
     (Flow.compile ~options:(flow_opts ()) (Kernels.gemm ~tiles:small_tiles ())).Flow.transformed);
    ("plain-gemm", plain (Kernels.gemm ~tiles:small_tiles ()));
    ("plain-attention", plain (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ())) ]

let test_mutations () =
  let bases = bases () in
  List.iter (fun (bname, k) -> assert_no_errors bname (Arefcheck.check_kernel k)) bases;
  let applied = Hashtbl.create 16 in
  List.iter
    (fun (mu : Mutate.t) ->
      List.iter
        (fun (bname, base) ->
          match mu.Mutate.apply base with
          | None -> ()
          | Some mutant ->
            Hashtbl.replace applied mu.Mutate.name ();
            assert_flagged ~check:mu.Mutate.expect
              (Printf.sprintf "mutation %s on %s" mu.Mutate.name bname)
              (Arefcheck.check_kernel mutant))
        bases)
    Mutate.all;
  List.iter
    (fun (mu : Mutate.t) ->
      if not (Hashtbl.mem applied mu.Mutate.name) then
        Alcotest.failf "mutation %s applied to no base kernel" mu.Mutate.name)
    Mutate.all;
  (* The acceptance bar: at least 8 distinct protocol mutations. *)
  Alcotest.(check bool) "at least 8 distinct mutations" true (Hashtbl.length applied >= 8)

let test_mutations_cover_attention () =
  (* At least 2 structurally different kernels exercise most mutations:
     count how many apply to the attention base specifically. *)
  let base =
    let k = Kernel.clone (Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ()) in
    ignore (Rewrite.canonicalize k);
    Tawa_passes.Partition.warp_specialize k
  in
  let n =
    List.length
      (List.filter (fun (mu : Mutate.t) -> mu.Mutate.apply base <> None) Mutate.all)
  in
  Alcotest.(check bool) "most mutations apply to attention too" true (n >= 6)

(* A channel nobody puts to or gets from is waste, not a protocol
   break: arefcheck's channel discipline warns about it, without an
   error, on a compiled GEMM and attention. *)
let test_orphan_channel_warned () =
  List.iter
    (fun (bname, k) ->
      let base = (Flow.compile ~options:(flow_opts ()) k).Flow.transformed in
      match Mutate.orphan_slot.Mutate.apply base with
      | None -> Alcotest.failf "orphan-slot does not apply to %s" bname
      | Some mutant ->
        let ds = Arefcheck.check_kernel mutant in
        assert_no_errors ("orphan-slot on " ^ bname) ds;
        if
          not
            (List.exists
               (fun (d : Diagnostic.t) ->
                 d.Diagnostic.check = Mutate.orphan_slot.Mutate.expect
                 && d.Diagnostic.severity = Diagnostic.Warning
                 && Astring.String.is_infix ~affix:"never used" d.Diagnostic.message)
               ds)
        then
          Alcotest.failf "orphan-slot on %s: expected an unused-channel warning, got:\n%s"
            bname
            (if ds = [] then "(no diagnostics)" else Diagnostic.report ds))
    [ ("gemm", Kernels.gemm ~tiles:small_tiles ());
      ("attention", Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ()) ]

(* A channel read but never written: the drop-put mutant of a compiled
   GEMM and attention gets arefcheck's never-written error from the
   channel discipline and a startup error from the deadlock check. *)
let test_unwritten_channel_rejected () =
  List.iter
    (fun (bname, k) ->
      let base = (Flow.compile ~options:(flow_opts ()) k).Flow.transformed in
      match Mutate.drop_put.Mutate.apply base with
      | None -> Alcotest.failf "drop-put does not apply to %s" bname
      | Some mutant ->
        let ds = Arefcheck.check_kernel mutant in
        let has check affix =
          List.exists
            (fun (d : Diagnostic.t) ->
              d.Diagnostic.check = check
              && Astring.String.is_infix ~affix d.Diagnostic.message)
            (Diagnostic.errors ds)
        in
        if
          not
            (has Check_channel.name "never written"
            && has Check_deadlock.name "startup deadlock")
        then
          Alcotest.failf
            "drop-put on %s: expected never-written and startup-deadlock errors, got:\n%s"
            bname
            (if ds = [] then "(no diagnostics)" else Diagnostic.report ds))
    [ ("gemm", Kernels.gemm ~tiles:small_tiles ());
      ("attention", Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ()) ]

(* --------------------- handcrafted deadlock ----------------------- *)

(* Two rings read in opposite orders by two partitions: A gets from r2
   before putting into r1, B gets from r1 before putting into r2 — a
   classic wait cycle no interleaving resolves. *)
let cyclic_kernel () =
  let payload = Types.memdesc [ 8; 8 ] Dtype.F16 in
  Builder.kernel "cyclic" [] (fun b _ ->
      let lb = Builder.const_i b 0 in
      let ub = Builder.const_i b 4 in
      let step = Builder.const_i b 1 in
      let ring () = Builder.emit1 b ~hint:"aref" (Op.Aref_create 2) [] (Types.aref [ payload ] 2) in
      let a1 = ring () in
      let a2 = ring () in
      let partition ~get_from ~put_into =
        let pb = Builder.block_builder () in
        ignore
          (Builder.for_ pb ~hint:"k" ~lb ~ub ~step ~inits:[] (fun iv _ ->
               let it = Tawa_passes.Partition.emit_iter_index pb ~iv ~lb ~step in
               let view = Builder.emit1 pb ~hint:"view" Op.Aref_get [ get_from; it ] payload in
               Builder.emit0 pb Op.Aref_put [ put_into; it; view ];
               Builder.emit0 pb Op.Aref_consumed [ get_from; it ];
               []));
        Op.single_block_region (Builder.finish pb)
      in
      let a = partition ~get_from:a2 ~put_into:a1 in
      let b' = partition ~get_from:a1 ~put_into:a2 in
      Builder.emit0 b ~regions:[ a; b' ] Op.Warp_group [])

let test_cyclic_deadlock () =
  assert_flagged ~check:Check_deadlock.name "cyclic two-ring kernel"
    (Arefcheck.check_kernel (cyclic_kernel ()))

(* ------------------------ multicast rules ------------------------- *)

(* A straight-line warp-specialized kernel over channels of the given
   (depth, declared multicast): each region lists its partition's
   channel ops in order as (opcode, channel, slot), slot 0 or 1. *)
let straight_kernel name chans regions =
  let payload = Types.memdesc [ 8; 8 ] Dtype.F16 in
  let slots =
    List.map
      (fun n -> Op.mk (Op.Const_int n) ~results:[ Value.fresh ~hint:"slot" Types.i32 ])
      [ 0; 1 ]
  in
  let slot n = List.hd (List.nth slots n).Op.results in
  let creates =
    List.map
      (fun (depth, multicast) ->
        let ar = Value.fresh ~hint:"aref" (Types.aref [ payload ] depth) in
        let cr = Op.mk (Op.Aref_create depth) ~results:[ ar ] in
        if multicast > 1 then Op.set_attr cr "multicast" (Op.Attr_int multicast);
        cr)
      chans
  in
  let site (opcode, c, n) =
    let aref = List.hd (List.nth creates c).Op.results in
    match opcode with
    | Op.Aref_put ->
      let pv = Value.fresh ~hint:"tile" payload in
      [ Op.mk (Op.Const_int 7) ~results:[ pv ]; Op.mk Op.Aref_put ~operands:[ aref; slot n; pv ] ]
    | Op.Aref_get ->
      [ Op.mk Op.Aref_get ~operands:[ aref; slot n ] ~results:[ Value.fresh ~hint:"view" payload ] ]
    | _ -> [ Op.mk opcode ~operands:[ aref; slot n ] ]
  in
  let wg =
    Op.mk Op.Warp_group
      ~regions:(List.map (fun r -> Op.single_block_region (List.concat_map site r)) regions)
  in
  Kernel.create ~name ~params:[] ~body:(Op.single_block_region (slots @ creates @ [ wg ]))

let read c n = [ (Op.Aref_get, c, n); (Op.Aref_consumed, c, n) ]

(* Producer + two consumers on one channel: an error unless the create
   declares multicast = 2. *)
let multicast_kernel ~declared =
  straight_kernel "multicast" [ (2, if declared then 2 else 1) ]
    [ [ (Op.Aref_put, 0, 0) ]; read 0 0; read 0 0 ]

let test_multicast_declaration () =
  assert_no_errors "declared multicast"
    (Arefcheck.check_kernel (multicast_kernel ~declared:true));
  assert_flagged ~check:Check_channel.name "undeclared multicast"
    (Arefcheck.check_kernel (multicast_kernel ~declared:false))

(* Two readers of a multicast channel 0. The first also waits on
   channel 1, which the producer fills only after its second put to
   channel 0. At depth 1 that put needs slot 0 back, and a multicast
   slot frees only once every reader has released it: the second
   reader's release is not enough while the first holds the slot and
   waits, so the wait cycle closes. At depth 2 the second put takes
   slot 1 and every partition finishes. *)
let multicast_cycle_kernel ~depth =
  straight_kernel "multicast_cycle" [ (depth, 2); (1, 1) ]
    [ [ (Op.Aref_put, 0, 0); (Op.Aref_put, 0, 1); (Op.Aref_put, 1, 0) ];
      [ (Op.Aref_get, 0, 0) ] @ read 1 0 @ [ (Op.Aref_consumed, 0, 0) ];
      read 0 0 ]

let test_multicast_cycle () =
  let ds = Arefcheck.check_kernel (multicast_cycle_kernel ~depth:1) in
  if
    not
      (List.exists
         (fun (d : Diagnostic.t) ->
           d.Diagnostic.check = Check_deadlock.name
           && Astring.String.is_infix ~affix:"startup deadlock" d.Diagnostic.message)
         (Diagnostic.errors ds))
  then
    Alcotest.failf "depth-1 multicast cycle: expected a startup deadlock, got:\n%s"
      (if ds = [] then "(no diagnostics)" else Diagnostic.report ds);
  assert_no_errors "depth-2 multicast" (Arefcheck.check_kernel (multicast_cycle_kernel ~depth:2))

(* A depth-0 ring has no slot: the capacity check reports it, and the
   startup run models it as one slot instead of raising. *)
let test_zero_depth_channel () =
  let ds =
    Arefcheck.check_kernel
      (straight_kernel "zero_depth" [ (0, 1) ] [ [ (Op.Aref_put, 0, 0) ]; read 0 0 ])
  in
  if
    not
      (List.exists
         (fun (d : Diagnostic.t) ->
           d.Diagnostic.check = Check_deadlock.name
           && Astring.String.is_infix ~affix:"at least one slot" d.Diagnostic.message)
         (Diagnostic.errors ds))
  then
    Alcotest.failf "depth 0: expected the capacity error, got:\n%s"
      (if ds = [] then "(no diagnostics)" else Diagnostic.report ds)

(* ----------------------- mbarrier pairing ------------------------- *)

open Tawa_machine

let mk_program ?(n = 2) ?counts streams =
  let counts = match counts with Some c -> c | None -> Array.make n 1 in
  { Isa.name = "hand"; param_tys = []; streams; allocs = [];
    num_mbarriers = n; mbar_arrive_counts = counts;
    mbar_resettable = Array.make n true; num_rings = 0; persistent = false;
    grid_axes = 1; prov = Isa.no_prov }

let stream role instrs = { Isa.role; instrs = Array.of_list instrs; coop = 1 }
let bar b = { Isa.base = b; index = Isa.Imm 0 }

let tma_arriving full =
  Isa.Tma_load
    { desc = Isa.Reg 0; offs = []; dst = { Isa.alloc = 0; slot = Isa.Imm 0 };
      rows = 8; cols = 8; dtype = Dtype.F16; full }

let test_mbarrier_orphan_wait () =
  let p =
    mk_program [ stream Op.Producer [ Isa.Mbar_wait { bar = bar 0; target = Isa.Imm 1 } ] ]
  in
  assert_flagged ~check:Check_mbarrier.name "orphan wait" (Check_mbarrier.run p)

let test_mbarrier_self_deadlock () =
  let p =
    mk_program
      [ stream Op.Producer
          [ Isa.Mbar_arrive (bar 0); Isa.Mbar_wait { bar = bar 0; target = Isa.Imm 1 } ] ]
  in
  assert_flagged ~check:Check_mbarrier.name "same-stream arrive+wait" (Check_mbarrier.run p)

let test_mbarrier_out_of_range () =
  let p =
    mk_program [ stream Op.Producer [ Isa.Mbar_wait { bar = bar 5; target = Isa.Imm 1 } ] ]
  in
  assert_flagged ~check:Check_mbarrier.name "out-of-range barrier" (Check_mbarrier.run p)

let test_mbarrier_zero_count () =
  let p =
    mk_program ~counts:[| 0; 1 |]
      [ stream Op.Producer [ Isa.Mbar_wait { bar = bar 0; target = Isa.Imm 1 } ];
        stream Op.Consumer [ Isa.Mbar_arrive (bar 0) ] ]
  in
  assert_flagged ~check:Check_mbarrier.name "zero arrive count" (Check_mbarrier.run p)

let test_mbarrier_legal_patterns () =
  (* Producer TMA-arrives bar 1 and waits the empty bar 0; consumer
     waits the full bar 1 and releases by arriving bar 0 — the aref
     lowering. The same-stream TMA+wait scratch pattern is also legal. *)
  let p =
    mk_program
      [ stream Op.Producer
          [ tma_arriving (bar 1); Isa.Mbar_wait { bar = bar 0; target = Isa.Imm 1 } ];
        stream Op.Consumer
          [ Isa.Mbar_wait { bar = bar 1; target = Isa.Imm 1 }; Isa.Mbar_arrive (bar 0) ] ]
  in
  assert_no_errors "aref pairing" (Check_mbarrier.run p);
  let scratch =
    mk_program ~n:1
      [ stream Op.Producer
          [ tma_arriving (bar 0); Isa.Mbar_wait { bar = bar 0; target = Isa.Imm 1 } ] ]
  in
  assert_no_errors "scratch TMA + same-stream wait" (Check_mbarrier.run scratch)

(* -------------------------- plumbing ------------------------------ *)

let test_printer_ids () =
  let op = Op.mk (Op.Const_int 3) ~results:[ Value.fresh Types.i32 ] in
  Alcotest.(check bool) "op_to_string ~ids carries the op id" true
    (Astring.String.is_infix ~affix:(Printf.sprintf "id = %d" op.Op.oid)
       (Printer.op_to_string ~ids:true op));
  Alcotest.(check bool) "default printing has no ids" false
    (Astring.String.is_infix ~affix:"id = " (Printer.op_to_string op));
  let c = Flow.compile ~options:(flow_opts ()) (Kernels.gemm ~tiles:small_tiles ()) in
  Alcotest.(check bool) "dump_ir ~ids annotates ops" true
    (Astring.String.is_infix ~affix:"id = " (Flow.dump_ir ~ids:true c))

let test_manager_gating () =
  (* The default pipeline's output must pass arefcheck... *)
  let r = Tawa_passes.Manager.compile (Kernels.gemm ~tiles:small_tiles ()) in
  Alcotest.(check bool) "gemm is warp-specialized" true r.Tawa_passes.Manager.warp_specialized;
  assert_no_errors "default-options gemm" (Arefcheck.check_kernel r.Tawa_passes.Manager.kernel);
  (* ...and every stage is verified even when its pass does not apply
     (an empty kernel applies none of them). *)
  let empty =
    Kernel.create ~name:"empty" ~params:[] ~body:(Op.single_block_region [])
  in
  let r = Tawa_passes.Manager.compile empty in
  Alcotest.(check bool) "no-op pipeline verifies" false r.Tawa_passes.Manager.warp_specialized

let test_diagnostic_format () =
  let d =
    Diagnostic.error ~check:"channel-discipline"
      ~values:[ Value.fresh ~hint:"aref" Types.i32 ] "slot %d out of range" 3
  in
  let s = Diagnostic.to_string d in
  Alcotest.(check bool) "mentions severity and check" true
    (Astring.String.is_prefix ~affix:"error[channel-discipline]:" s);
  Alcotest.(check bool) "mentions the value" true (Astring.String.is_infix ~affix:"aref" s)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "analysis.clean",
      [ Alcotest.test_case "frontend kernels pass arefcheck" `Quick test_clean_frontend;
        Alcotest.test_case "baseline pipelines pass arefcheck" `Quick test_clean_baselines;
        Alcotest.test_case "example .tw kernels pass arefcheck" `Quick test_clean_examples ] );
    qsuite "analysis.fuzz" [ prop_fuzz_clean; prop_fuzz_clean_deep ];
    ( "analysis.mutations",
      [ Alcotest.test_case "every protocol mutation is flagged" `Quick test_mutations;
        Alcotest.test_case "mutations cover attention" `Quick test_mutations_cover_attention;
        Alcotest.test_case "unused channel warned" `Quick test_orphan_channel_warned;
        Alcotest.test_case "unwritten channel rejected" `Quick
          test_unwritten_channel_rejected ] );
    ( "analysis.deadlock",
      [ Alcotest.test_case "cyclic two-ring kernel rejected" `Quick test_cyclic_deadlock;
        Alcotest.test_case "multicast release cycle rejected" `Quick test_multicast_cycle;
        Alcotest.test_case "depth-0 channel reported" `Quick test_zero_depth_channel ] );
    ( "analysis.channel",
      [ Alcotest.test_case "multicast must be declared" `Quick test_multicast_declaration ] );
    ( "analysis.machine",
      [ Alcotest.test_case "mbarrier orphan wait" `Quick test_mbarrier_orphan_wait;
        Alcotest.test_case "mbarrier self deadlock" `Quick test_mbarrier_self_deadlock;
        Alcotest.test_case "mbarrier out of range" `Quick test_mbarrier_out_of_range;
        Alcotest.test_case "mbarrier zero arrive count" `Quick test_mbarrier_zero_count;
        Alcotest.test_case "legal mbarrier patterns accepted" `Quick test_mbarrier_legal_patterns ] );
    ( "analysis.plumbing",
      [ Alcotest.test_case "printer stable ids" `Quick test_printer_ids;
        Alcotest.test_case "pass-manager gating and per-stage verify" `Quick test_manager_gating;
        Alcotest.test_case "diagnostic format" `Quick test_diagnostic_format ] );
  ]
