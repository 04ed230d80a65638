(* Tests for the task-graph execution layer: read/write inference,
   dependency planning (with a QCheck scheduler-safety property), the
   graph-vs-serial differential on all three demo graphs (outputs,
   cycles, stall profiles — bit-identical), replay idempotence (N
   replays, one decode), and tunestore auto-configuration at
   instantiate. *)

open Tawa_tensor
open Tawa_frontend
open Tawa_gpusim
module Flow = Tawa_core.Flow
module Autotune = Tawa_core.Autotune
module Workloads = Tawa_core.Workloads
module Tunestore = Tawa_machine.Tunestore
module Graph = Tawa_graph.Graph
module Gallery = Tawa_graph.Gallery

(* Exact outcome equality, as in test_engine.ml: cycles, instructions,
   stats, and the per-WG / per-channel stall profiles, bit for bit. *)
let profiles_equal (a : Sim.profile) (b : Sim.profile) =
  a.Sim.wall = b.Sim.wall
  && a.Sim.wg_profs = b.Sim.wg_profs
  && a.Sim.chan_profs = b.Sim.chan_profs

let outcomes_equal (a : Sim.outcome) (b : Sim.outcome) =
  a.Sim.cycles = b.Sim.cycles
  && a.Sim.instructions = b.Sim.instructions
  && a.Sim.stats = b.Sim.stats
  && profiles_equal a.Sim.profile b.Sim.profile

(* ------------------------------------------------------------------ *)
(* Read/write inference                                                *)
(* ------------------------------------------------------------------ *)

let test_param_access_gemm () =
  let access = Graph.param_access (Kernels.gemm ()) in
  Alcotest.(check (list int)) "gemm reads a,b" [ 0; 1 ] access.Graph.reads;
  Alcotest.(check (list int)) "gemm writes c" [ 2 ] access.Graph.writes

let test_param_access_attention () =
  let access = Graph.param_access (Kernels.attention ()) in
  Alcotest.(check (list int)) "attention reads q,k,v" [ 0; 1; 2 ] access.Graph.reads;
  Alcotest.(check (list int)) "attention writes o" [ 3 ] access.Graph.writes

let test_param_access_conservative () =
  (* A pointer parameter that never flows through a trackable
     descriptor must be classified read+write. *)
  let k =
    Tawa_ir.Builder.kernel "opaque"
      [ ("used", Tawa_ir.Types.ptr Dtype.F16);
        ("opaque", Tawa_ir.Types.ptr Dtype.F16);
        ("M", Tawa_ir.Types.i32) ]
      (fun b ps ->
        let used, _opaque, m =
          match ps with [ u; o; m ] -> (u, o, m) | _ -> assert false
        in
        let c1 = Tawa_ir.Builder.const_i b 1 in
        let d =
          Tawa_ir.Builder.make_tensor_desc b used ~sizes:[ m; m ]
            ~strides:[ m; c1 ] ~dtype:Dtype.F16
        in
        let z = Tawa_ir.Builder.const_i b 0 in
        let t = Tawa_ir.Builder.tma_load b d ~offsets:[ z; z ] ~shape:[ 16; 16 ] in
        Tawa_ir.Builder.tma_store b d ~offsets:[ z; z ] t)
  in
  let access = Graph.param_access k in
  Alcotest.(check (list int)) "opaque ptr read" [ 0; 1 ] access.Graph.reads;
  Alcotest.(check (list int)) "opaque ptr written" [ 0; 1 ] access.Graph.writes

(* ------------------------------------------------------------------ *)
(* Dependency planner                                                  *)
(* ------------------------------------------------------------------ *)

let test_demo_wave_shapes () =
  let waves name (d : Gallery.demo) =
    (name, Array.map Array.to_list d.Gallery.d_graph.Graph.waves)
  in
  let name, w = waves "attention" (Gallery.attention_block ()) in
  Alcotest.(check (list (list int)))
    (name ^ " waves")
    [ [ 0; 1; 2 ]; [ 3 ]; [ 4 ] ]
    (Array.to_list w);
  let name, w = waves "splitk" (Gallery.split_k ()) in
  Alcotest.(check (list (list int)))
    (name ^ " waves")
    [ [ 0; 1; 2; 3 ]; [ 4 ] ]
    (Array.to_list w);
  let name, w = waves "moe" (Gallery.moe ()) in
  Alcotest.(check (list (list int))) (name ^ " waves") [ [ 0; 1; 2; 3 ] ]
    (Array.to_list w)

let test_edge_kinds () =
  (* node0 writes r0; node1 reads r0 (RAW), node2 writes r0 after the
     read (WAW vs node0 wins as the stronger reason over WAR vs node1?
     no: vs node0 it's WAW, vs node1 it's WAR — both edges exist). *)
  let edges =
    Graph.infer_edges [| ([], [ 0 ]); ([ 0 ], [ 1 ]); ([], [ 0 ]) |]
  in
  Alcotest.(check bool) "raw edge" true
    (List.mem (0, 1, Graph.Raw) edges);
  Alcotest.(check bool) "waw edge" true
    (List.mem (0, 2, Graph.Waw) edges);
  Alcotest.(check bool) "war edge" true
    (List.mem (1, 2, Graph.War) edges)

(* QCheck: over random read/write programs, the planner never schedules
   a node before its producers — every inferred edge crosses strictly
   forward in wave order — and waves partition the nodes. *)
let arb_program =
  let open QCheck in
  let gen =
    Gen.(
      int_range 1 10 >>= fun n ->
      array_repeat n
        (pair
           (list_size (int_range 0 3) (int_range 0 5))
           (list_size (int_range 0 3) (int_range 0 5))))
  in
  QCheck.make gen ~print:(fun nodes ->
      String.concat "; "
        (Array.to_list
           (Array.map
              (fun (r, w) ->
                Printf.sprintf "r=[%s] w=[%s]"
                  (String.concat "," (List.map string_of_int r))
                  (String.concat "," (List.map string_of_int w)))
              nodes)))

let prop_scheduler_safety =
  QCheck.Test.make ~name:"planner: producers complete before consumers"
    ~count:300 arb_program (fun nodes ->
      let n = Array.length nodes in
      let edges = Graph.infer_edges nodes in
      let wave = Graph.wave_order ~n edges in
      List.for_all (fun (i, j, _) -> i < j && wave.(i) < wave.(j)) edges
      && Array.for_all (fun w -> w >= 0 && w < n) wave)

let prop_program_order_is_serializable =
  (* Running waves in order is equivalent to program order for the
     conflicts the planner tracks: within a wave no two nodes
     conflict. *)
  QCheck.Test.make ~name:"planner: waves are conflict-free" ~count:300
    arb_program (fun nodes ->
      let n = Array.length nodes in
      let edges = Graph.infer_edges nodes in
      let wave = Graph.wave_order ~n edges in
      let conflict i j =
        let ri, wi = nodes.(i) and rj, wj = nodes.(j) in
        let inter a b = List.exists (fun x -> List.mem x b) a in
        inter wi rj || inter wi wj || inter ri wj || inter rj wi
      in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if wave.(i) = wave.(j) && conflict i j then ok := false
        done
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Graph-vs-serial differential on the demo gallery                    *)
(* ------------------------------------------------------------------ *)

(* Two independent builds of the same demo bind bit-identical inputs
   (fixed seeds); run one through the wave scheduler's replay and the
   other through the serialized reference path, then demand identical
   outputs, per-node cycles, and representative stall profiles. *)
let differential (build : unit -> Gallery.demo) () =
  let demo_g = build () in
  let demo_s = build () in
  let inst_g = Graph.instantiate demo_g.Gallery.d_graph in
  let inst_s = Graph.instantiate demo_s.Gallery.d_graph in
  let run_g = Graph.replay inst_g in
  let run_s = Graph.run_serial inst_s in
  List.iter2
    (fun (name, got) (_, want) ->
      Alcotest.(check bool)
        (Printf.sprintf "output %s bit-identical" name)
        true (Tensor.equal got want))
    demo_g.Gallery.d_outputs demo_s.Gallery.d_outputs;
  Array.iteri
    (fun i (nr_g : Graph.node_result) ->
      let nr_s = run_s.Graph.r_nodes.(i) in
      Alcotest.(check bool)
        (Printf.sprintf "node %s cycles equal" nr_g.Graph.nr_name)
        true (nr_g.Graph.nr_cycles = nr_s.Graph.nr_cycles);
      Alcotest.(check bool)
        (Printf.sprintf "node %s per-CTA cycles equal" nr_g.Graph.nr_name)
        true (nr_g.Graph.nr_cta_cycles = nr_s.Graph.nr_cta_cycles);
      Alcotest.(check bool)
        (Printf.sprintf "node %s outcomes_equal (stats + stall profile)"
           nr_g.Graph.nr_name)
        true
        (outcomes_equal nr_g.Graph.nr_rep nr_s.Graph.nr_rep))
    run_g.Graph.r_nodes;
  (* And both match the CPU reference. *)
  Alcotest.(check bool) "graph outputs match CPU reference" true
    (Gallery.check demo_g < 2e-2)

let test_overlap_model () =
  (* The wave model must beat serialized launches whenever a wave holds
     more than one node within one SM round: fewer launch overheads and
     a max instead of a sum. *)
  let demo = Gallery.attention_block () in
  let inst = Graph.instantiate demo.Gallery.d_graph in
  let run = Graph.replay inst in
  let m = Graph.overlap_model inst run in
  Alcotest.(check bool) "graph cycles < serial cycles" true
    (m.Graph.m_graph_cycles < m.Graph.m_serial_cycles);
  Alcotest.(check bool) "speedup >= 1.3" true (m.Graph.m_speedup >= 1.3);
  Alcotest.(check int) "one wave model per wave" 3 (Array.length m.Graph.m_waves)

let test_trace_has_graph_lane () =
  let demo = Gallery.split_k () in
  let inst = Graph.instantiate demo.Gallery.d_graph in
  let run = Graph.replay inst in
  let events = Graph.trace_events inst run in
  let waves =
    List.filter
      (fun (e : Tawa_obs.Trace.event) ->
        e.Tawa_obs.Trace.cat = "graph" && e.Tawa_obs.Trace.tid = 0)
      events
  in
  Alcotest.(check int) "wave spans on the graph lane" 2 (List.length waves);
  Alcotest.(check bool) "node lanes named" true
    (List.exists
       (fun (e : Tawa_obs.Trace.event) ->
         e.Tawa_obs.Trace.ph = "M" && e.Tawa_obs.Trace.tid > 0)
       events)

(* ------------------------------------------------------------------ *)
(* Replay: idempotent, decode-once                                     *)
(* ------------------------------------------------------------------ *)

let test_replay_decodes_once () =
  let demo = Gallery.attention_block () in
  let inst = Graph.instantiate demo.Gallery.d_graph in
  let first = Graph.replay inst in
  let dec_after_first = Engine.decode_cache_stats () in
  let flow_after_first = Flow.cache_stats () in
  let runs = List.init 3 (fun _ -> Graph.replay inst) in
  let dec_after = Engine.decode_cache_stats () in
  let flow_after = Flow.cache_stats () in
  (* Re-execution is bit-stable... *)
  List.iter
    (fun (r : Graph.run) ->
      Array.iteri
        (fun i (nr : Graph.node_result) ->
          Alcotest.(check bool) "replayed cycles stable" true
            (nr.Graph.nr_cta_cycles
            = first.Graph.r_nodes.(i).Graph.nr_cta_cycles))
        r.Graph.r_nodes)
    runs;
  (* ...and pays no compilation or decoding: both caches see zero new
     lookups of any kind during replay. *)
  Alcotest.(check bool) "no decode-cache traffic during replay" true
    (dec_after = dec_after_first);
  Alcotest.(check bool) "no compile-cache traffic during replay" true
    (flow_after = flow_after_first);
  Alcotest.(check int) "replay count" 4 inst.Graph.replays

(* ------------------------------------------------------------------ *)
(* Tunestore auto-configuration                                        *)
(* ------------------------------------------------------------------ *)

let test_tunestore_autoconfig () =
  let path = Filename.temp_file "tawa_graph_tune" ".tsv" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      let store = Tunestore.open_ ~name:"graph_test" ~path () in
      (* Warm the store with a tuned winner of the QKV/projection GEMM
         family's space (D=4, P=3) and nothing for the attention
         family. *)
      let family =
        Autotune.Gemm { Workloads.m = 64; n = 32; k = 32; dtype = Dtype.F16 }
      in
      let measurement =
        {
          Autotune.candidate =
            {
              Autotune.tiles = { Kernels.block_m = 64; block_n = 64; block_k = 64 };
              aref_depth = 4;
              mma_depth = 3;
              coop = 1;
              persistent = false;
              coarse = false;
              strategy = Flow.Warp_specialized;
            };
          tflops = 1.0;
          cycles = 1.0;
        }
      in
      Tunestore.put store ~key:(Autotune.store_key family)
        (Autotune.encode_measurement measurement);
      let demo = Gallery.attention_block () in
      let inst = Graph.instantiate ~store demo.Gallery.d_graph in
      (* All four GEMM nodes share the family: protocol depths adopt
         the stored winner. *)
      List.iter
        (fun i ->
          Alcotest.(check bool) (Printf.sprintf "node %d tuned" i) true
            (Graph.node_tuned inst i);
          Alcotest.(check int)
            (Printf.sprintf "node %d D" i)
            4
            (Graph.node_options inst i).Flow.aref_depth;
          Alcotest.(check int)
            (Printf.sprintf "node %d P" i)
            3
            (Graph.node_options inst i).Flow.mma_depth)
        [ 0; 1; 2; 4 ];
      (* The attention node's family is cold: untouched. *)
      Alcotest.(check bool) "attention node untuned" false
        (Graph.node_tuned inst 3);
      (* The auto-configured instance still verifies: replay against a
         serial run of the same instance-equivalent build. *)
      let run_g = Graph.replay inst in
      let demo_s = Gallery.attention_block () in
      let inst_s = Graph.instantiate ~store demo_s.Gallery.d_graph in
      let run_s = Graph.run_serial inst_s in
      List.iter2
        (fun (name, got) (_, want) ->
          Alcotest.(check bool)
            (Printf.sprintf "tuned output %s bit-identical" name)
            true (Tensor.equal got want))
        demo.Gallery.d_outputs demo_s.Gallery.d_outputs;
      Array.iteri
        (fun i (nr : Graph.node_result) ->
          Alcotest.(check bool) "tuned cycles equal" true
            (nr.Graph.nr_cycles = run_s.Graph.r_nodes.(i).Graph.nr_cycles))
        run_g.Graph.r_nodes)

(* A stored entry outside the family's space is a miss: every node
   keeps its own options. *)
let test_tunestore_out_of_space () =
  let plain = Graph.instantiate (Gallery.attention_block ()).Gallery.d_graph in
  List.iter
    (fun (what, c) ->
      Test_autotune.with_store (fun _ store ->
          Tunestore.put store
            ~key:(Autotune.store_key Test_autotune.tiny_gemm)
            (Test_autotune.entry c);
          let inst = Graph.instantiate ~store (Gallery.attention_block ()).Gallery.d_graph in
          for i = 0 to Graph.num_nodes inst.Graph.graph - 1 do
            Alcotest.(check bool) (Printf.sprintf "%s: node %d untuned" what i) false
              (Graph.node_tuned inst i);
            Alcotest.(check bool)
              (Printf.sprintf "%s: node %d keeps its options" what i)
              true
              (Graph.node_options inst i = Graph.node_options plain i)
          done))
    Test_autotune.out_of_space

(* ------------------------------------------------------------------ *)
(* Functional output bits                                              *)
(* ------------------------------------------------------------------ *)

(* MD5 of every output's name and payload bits, in order, after one
   replay. Recorded before the functional payload kernels were
   rewritten (register blocking, in-place reuse); any change to a
   single output bit moves a digest. *)
let payload_md5 outputs =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, (t : Tensor.t)) ->
      Buffer.add_string b name;
      Array.iter (fun x -> Buffer.add_int64_le b (Int64.bits_of_float x)) t.Tensor.data)
    outputs;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_gallery_digests () =
  List.iter
    (fun (build, want) ->
      let demo = build () in
      ignore (Graph.replay (Graph.instantiate demo.Gallery.d_graph));
      Alcotest.(check string) demo.Gallery.d_name want (payload_md5 demo.Gallery.d_outputs))
    [ (Gallery.attention_block, "f0ba83bb7cb0a0f209c23c2db7d18afb");
      (Gallery.split_k, "269706111e49dabc30b1d425e9b52661");
      (Gallery.moe, "21b411ef0dea670883310ff692f820f2") ]

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "graph.infer",
      [
        Alcotest.test_case "gemm read/write sets" `Quick test_param_access_gemm;
        Alcotest.test_case "attention read/write sets" `Quick
          test_param_access_attention;
        Alcotest.test_case "unclassified pointer is conservative" `Quick
          test_param_access_conservative;
        Alcotest.test_case "demo wave shapes" `Quick test_demo_wave_shapes;
        Alcotest.test_case "edge kinds" `Quick test_edge_kinds;
      ] );
    qsuite "graph.planner.props"
      [ prop_scheduler_safety; prop_program_order_is_serializable ];
    ( "graph.differential",
      [
        Alcotest.test_case "attention block graph == serial" `Quick
          (differential Gallery.attention_block);
        Alcotest.test_case "split-K graph == serial" `Quick
          (differential Gallery.split_k);
        Alcotest.test_case "moe graph == serial" `Quick
          (differential Gallery.moe);
        Alcotest.test_case "overlap model beats serialized launches" `Quick
          test_overlap_model;
        Alcotest.test_case "trace has a graph lane" `Quick
          test_trace_has_graph_lane;
      ] );
    ( "graph.replay",
      [
        Alcotest.test_case "replay is idempotent and decode-once" `Quick
          test_replay_decodes_once;
        Alcotest.test_case "tunestore auto-configures nodes" `Quick
          test_tunestore_autoconfig;
        Alcotest.test_case "tunestore entry outside the space is a miss" `Quick
          test_tunestore_out_of_space;
        Alcotest.test_case "gallery output bits pinned" `Quick test_gallery_digests;
      ] );
  ]
