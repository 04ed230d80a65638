(* Tests for the deep profiler (PR 10, DESIGN.md §15): per-op cycle
   attribution must be bit-identical between the decoded engine and the
   tree-walking oracle, attribution must conserve (Σ per-op cycles =
   Σ per-WG bucket totals = wall × WG-count), the critical path of a
   warp-specialized GEMM must cross an aref channel edge with the same
   structure under both, the Chrome trace export emits valid monotone
   Perfetto JSON, the new JSON parser round-trips the emitter, and the
   metric registry snapshot stays deterministic. *)

open Tawa_machine
open Tawa_gpusim
module Flow = Tawa_core.Flow
module Json = Tawa_obs.Json
module Prof = Tawa_obs.Prof
module Registry = Tawa_obs.Registry
module Stall = Tawa_obs.Stall
module Trace = Tawa_obs.Trace

(* ------------------------------------------------------------------ *)
(* Kernel zoo (mirrors test_obs's differential corpus)                 *)
(* ------------------------------------------------------------------ *)

let gemm_params ~m ~n ~kk =
  [ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint m; Sim.Rint n; Sim.Rint kk ]

let ws_gemm ?(persistent = false) ?(coop = 1) ?(d = 2) ?(p = 1) () =
  let tiles = { Tawa_frontend.Kernels.block_m = 16; block_n = 16; block_k = 8 } in
  Flow.compile
    ~options:
      { Flow.default_options with aref_depth = d; mma_depth = p;
        num_consumer_wgs = coop; persistent; use_coarse = false }
    (Tawa_frontend.Kernels.gemm ~tiles ())

let attention () =
  Flow.compile
    ~options:
      { Flow.default_options with aref_depth = 2; mma_depth = 1;
        num_consumer_wgs = 1; persistent = false; use_coarse = true }
    (Tawa_frontend.Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ())

(* ------------------------------------------------------------------ *)
(* Per-op attribution: engines agree bit for bit                       *)
(* ------------------------------------------------------------------ *)

(* The CTA [Launch.estimate] simulates, on the oracle and on the
   decoded engine: whole outcomes and per-op rows must match. *)
let check_per_op_diff name (compiled : Flow.compiled) ~params ~grid =
  let program = compiled.Flow.program in
  let o, d = Oracle.estimate_both ~cfg:Config.h100 program ~params ~grid in
  Alcotest.(check bool) (name ^ ": outcomes bit-identical across engines") true
    (Oracle.outcomes_equal o d);
  let pr = o.Sim.profile in
  let opr = Sim.per_op ~program pr and opd = Sim.per_op ~program d.Sim.profile in
  Alcotest.(check bool)
    (name ^ ": per-op attribution bit-identical across engines") true
    (opr = opd);
  Alcotest.(check bool) (name ^ ": per-op table nonempty") true
    (Array.length opr > 0);
  (* Rows are sorted hottest-first and every row carries cycles. *)
  let sorted = ref true in
  Array.iteri
    (fun i o ->
      if i > 0 && o.Sim.o_cycles > opr.(i - 1).Sim.o_cycles then sorted := false)
    opr;
  Alcotest.(check bool) (name ^ ": rows sorted by cycles") true !sorted;
  Alcotest.(check bool) (name ^ ": rows all nonzero") true
    (Array.for_all (fun o -> o.Sim.o_cycles > 0.0) opr);
  (* The op table renders and mentions the hottest opcode. *)
  let tbl = Sim.op_table ~program pr in
  Alcotest.(check bool) (name ^ ": op table mentions hottest opcode") true
    (Astring.String.is_infix ~affix:opr.(0).Sim.o_name tbl)

let test_per_op_gemm () =
  check_per_op_diff "ws gemm" (ws_gemm ())
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~grid:(2, 2, 1)

let test_per_op_attention () =
  check_per_op_diff "coarse attention" (attention ())
    ~params:[ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint 32 ]
    ~grid:(2, 1, 1)

let test_per_op_persistent () =
  check_per_op_diff "persistent gemm"
    (ws_gemm ~persistent:true ())
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~grid:(2, 2, 1)

let test_per_op_coop () =
  check_per_op_diff "coop gemm" (ws_gemm ~coop:2 ())
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~grid:(2, 2, 1)

(* [Sim.ops_to_json] (the [ops] field of `tawac profile --ops --obs
   json`) holds every row of [Sim.per_op] in order, not just the
   table's top ones, and survives the printer and the parser: ids,
   opcode, cycles and stall buckets match the row, and the shares sum
   to 1 by conservation. *)
let test_per_op_json () =
  let program = (ws_gemm ()).Flow.program in
  let t =
    Launch.estimate ~cfg:Config.h100 program
      ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
      ~grid:(2, 2, 1) ~flops:1e6
  in
  let prof =
    match t.Launch.profile with
    | Some p -> p
    | None -> Alcotest.fail "no profile"
  in
  let rows = Sim.per_op ~program prof in
  let close what want got =
    Alcotest.(check bool) what true
      (Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 (Float.abs want))
  in
  let num what j =
    match Option.bind j Json.to_float_opt with
    | Some f -> f
    | None -> Alcotest.failf "%s is not a number" what
  in
  let id i = Some (if i < 0 then Json.Null else Json.Int i) in
  match Json.parse (Json.to_string (Sim.ops_to_json ~program prof)) with
  | Json.List objs ->
    Alcotest.(check int) "one object per row" (Array.length rows) (List.length objs);
    let share = ref 0.0 in
    List.iteri
      (fun i j ->
        let o = rows.(i) in
        let what = Printf.sprintf "row %d (%s)" i o.Sim.o_name in
        Alcotest.(check (option string)) (what ^ " opcode") (Some o.Sim.o_name)
          (Option.bind (Json.member "opcode" j) Json.to_str_opt);
        Alcotest.(check bool) (what ^ " op and src ids") true
          (Json.member "op" j = id o.Sim.o_oid && Json.member "src" j = id o.Sim.o_src);
        close (what ^ " cycles") o.Sim.o_cycles (num "cycles" (Json.member "cycles" j));
        (match Json.member "stall" j with
        | Some (Json.Obj kvs) ->
          Alcotest.(check (list string)) (what ^ " stall buckets")
            (Array.to_list Stall.names) (List.map fst kvs);
          List.iteri
            (fun b (name, v) -> close (what ^ " " ^ name) o.Sim.o_buckets.(b) (num name (Some v)))
            kvs
        | _ -> Alcotest.failf "%s has no stall object" what);
        share := !share +. num "share" (Json.member "share" j))
      objs;
    Alcotest.(check bool) "shares sum to 1" true (Float.abs (!share -. 1.0) <= 1e-6)
  | _ -> Alcotest.fail "ops json is not a list"

(* ------------------------------------------------------------------ *)
(* Conservation: Σ per-op = Σ per-WG buckets = wall × WG-count         *)
(* ------------------------------------------------------------------ *)

let prop_conservation =
  QCheck.Test.make
    ~name:"per-op cycles sum to bucket totals and wall x WG count" ~count:15
    QCheck.(quad (int_range 1 3) (int_range 1 2) (int_range 1 3) QCheck.bool)
    (fun (d, p, trip, persistent) ->
      let compiled = ws_gemm ~persistent ~d ~p () in
      let program = compiled.Flow.program in
      let t =
        Launch.estimate ~cfg:Config.h100 program
          ~params:(gemm_params ~m:32 ~n:32 ~kk:(trip * 8))
          ~grid:(2, 2, 1) ~flops:1e6
      in
      match t.Launch.profile with
      | None -> false
      | Some prof ->
        let n = Float.of_int (Array.length prof.Sim.wg_profs) in
        let pool = prof.Sim.wall *. n in
        let tol = n *. 1e-6 *. Float.max 1.0 prof.Sim.wall in
        let bucket_total =
          Array.fold_left
            (fun acc (w : Sim.wg_prof) ->
              acc +. Array.fold_left ( +. ) 0.0 w.Sim.p_buckets)
            0.0 prof.Sim.wg_profs
        in
        let cell_total =
          Array.fold_left
            (fun acc (w : Sim.wg_prof) ->
              acc +. Array.fold_left ( +. ) 0.0 w.Sim.p_cells)
            0.0 prof.Sim.wg_profs
        in
        let op_total =
          Array.fold_left
            (fun acc (o : Sim.op_prof) -> acc +. o.Sim.o_cycles)
            0.0
            (Sim.per_op ~program prof)
        in
        Float.abs (bucket_total -. pool) <= tol
        && Float.abs (cell_total -. pool) <= tol
        && Float.abs (op_total -. pool) <= tol)

(* ------------------------------------------------------------------ *)
(* Critical path: recorder-driven runs under both engines              *)
(* ------------------------------------------------------------------ *)

(* Run one CTA of the warp-specialized GEMM through [run_cta] (the
   oracle's or the decoded engine's) with a recorder attached; return
   the program, recorder, outcome and the computed critical path. *)
let recorded_run (run_cta : Oracle.runner) =
  let compiled = ws_gemm () in
  let program = compiled.Flow.program in
  let recorder = Prof.create () in
  let outcome =
    run_cta ~recorder ~cfg:Config.h100 ~program
      ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
      ~num_programs:[| 2; 2; 1 |]
      ~pop_global:(fun () -> -1)
      ()
  in
  let wg_times =
    Array.map (fun (w : Sim.wg_prof) -> w.Sim.p_time) outcome.Sim.profile.Sim.wg_profs
  in
  (program, recorder, outcome, Prof.critical_path recorder ~wg_times)

let test_critical_path_aref () =
  let program, recorder, _, path = recorded_run Engine.run_cta in
  Alcotest.(check bool) "events recorded" true
    (Prof.num_completions recorder > 0 && Prof.num_waits recorder > 0);
  Alcotest.(check bool) "path nonempty" true (path <> []);
  (* The acceptance criterion: on a warp-specialized GEMM the critical
     path must cross an aref channel edge (producer->consumer handoff). *)
  Alcotest.(check bool) "path crosses an aref channel" true
    (Prof.path_crosses path ~chans:(fun c -> Sim.is_aref_chan ~program c));
  (* Segments are contiguous in time and run launch -> finish. *)
  let rec contiguous = function
    | (a : Prof.path_step) :: (b :: _ as rest) ->
      a.Prof.st_t1 >= a.Prof.st_t0 -. 1e-9
      && b.Prof.st_t0 >= a.Prof.st_t0 -. 1e-9
      && contiguous rest
    | [ a ] -> a.Prof.st_t1 >= a.Prof.st_t0 -. 1e-9
    | [] -> true
  in
  Alcotest.(check bool) "segments ordered launch -> finish" true
    (contiguous path);
  (match path with
  | head :: _ ->
    Alcotest.(check bool) "head starts at launch" true (head.Prof.st_t0 = 0.0)
  | [] -> ());
  (* The renderer names the channel edge with its aref label. *)
  let rendered =
    Prof.render_path path
      ~wg_label:(Sim.wg_label_of ~program)
      ~chan_label:(Sim.chan_label_of ~program)
      ~pc_label:(Sim.pc_label_of ~program)
  in
  Alcotest.(check bool) "render names an aref barrier" true
    (Astring.String.is_infix ~affix:".full[" rendered
    || Astring.String.is_infix ~affix:".empty[" rendered);
  (* The JSON form parses and has one record per step. *)
  let j = Prof.path_to_json path ~chan_label:(Sim.chan_label_of ~program) in
  match Json.parse (Json.to_string j) with
  | Json.List steps ->
    Alcotest.(check int) "json step count" (List.length path) (List.length steps)
  | _ -> Alcotest.fail "path json is not a list"

(* The walk is engine-independent: same segments, same channel edges,
   same times — only the dominant-op label may differ (the decoded
   engine attributes a fused cost block to its first pc). *)
let test_critical_path_engines_agree () =
  let _, _, oref, pref = recorded_run Oracle.run_cta in
  let _, _, odec, pdec = recorded_run Engine.run_cta in
  Alcotest.(check (float 0.0)) "wall identical" oref.Sim.cycles odec.Sim.cycles;
  Alcotest.(check int) "same number of segments" (List.length pref)
    (List.length pdec);
  let tol = 1e-6 *. Float.max 1.0 oref.Sim.cycles in
  List.iter2
    (fun (a : Prof.path_step) (b : Prof.path_step) ->
      Alcotest.(check int) "segment wg" a.Prof.st_wg b.Prof.st_wg;
      Alcotest.(check int) "edge channel" a.Prof.st_chan b.Prof.st_chan;
      Alcotest.(check int) "edge consumer" a.Prof.st_consumer b.Prof.st_consumer;
      Alcotest.(check bool) "segment times agree" true
        (Float.abs (a.Prof.st_t0 -. b.Prof.st_t0) <= tol
        && Float.abs (a.Prof.st_t1 -. b.Prof.st_t1) <= tol
        && Float.abs (a.Prof.st_edge_latency -. b.Prof.st_edge_latency) <= tol
        && Float.abs (a.Prof.st_slack -. b.Prof.st_slack) <= tol))
    pref pdec

(* Synthetic recorder: a two-WG ping over one channel. WG1 blocks on
   channel 0 from t=10 until WG0's put (issued t=5) completes at t=40;
   WG1 then runs to t=100. The path must be exactly two segments
   joined by the channel-0 edge: a step's edge fields describe the
   handoff leaving the segment's end, so the producer head carries
   them. *)
let test_critical_path_synthetic () =
  let r = Prof.create () in
  Prof.record_op r ~wg:0 ~pc:0 ~t0:0.0 ~t1:5.0;
  Prof.record_completion r ~chan:0 ~n:1 ~time:40.0 ~wg:0 ~pc:1 ~issue:5.0;
  Prof.record_wait r ~chan:0 ~wg:1 ~pc:2 ~target:1 ~start:10.0 ~ready:40.0
    ~resume:41.0;
  Prof.record_op r ~wg:1 ~pc:3 ~t0:41.0 ~t1:100.0;
  let path = Prof.critical_path r ~wg_times:[| 5.0; 100.0 |] in
  match path with
  | [ head; tail ] ->
    Alcotest.(check int) "head on producer WG" 0 head.Prof.st_wg;
    Alcotest.(check bool) "head covers issue window" true
      (head.Prof.st_t0 = 0.0 && Float.abs (head.Prof.st_t1 -. 5.0) <= 1e-9);
    Alcotest.(check int) "edge through channel 0" 0 head.Prof.st_chan;
    Alcotest.(check int) "edge wakes WG1" 1 head.Prof.st_consumer;
    Alcotest.(check bool) "edge latency = issue -> resume" true
      (Float.abs (head.Prof.st_edge_latency -. 36.0) <= 1e-9);
    Alcotest.(check int) "tail on consumer WG" 1 tail.Prof.st_wg;
    Alcotest.(check bool) "tail covers the woken window" true
      (Float.abs (tail.Prof.st_t0 -. 41.0) <= 1e-9
      && Float.abs (tail.Prof.st_t1 -. 100.0) <= 1e-9);
    Alcotest.(check int) "no edge leaves the final segment" (-1)
      tail.Prof.st_chan;
    Alcotest.(check int) "dominant op of the tail" 3 tail.Prof.st_top_pc
  | _ -> Alcotest.failf "expected 2 segments, got %d" (List.length path)

(* ------------------------------------------------------------------ *)
(* Timeline lanes: channel intervals                                   *)
(* ------------------------------------------------------------------ *)

let test_channel_intervals () =
  let program, recorder, _, _ = recorded_run Engine.run_cta in
  let chans =
    Prof.channel_intervals recorder ~chan_label:(Sim.chan_label_of ~program)
  in
  let ops =
    Prof.op_intervals recorder
      ~wg_label:(Sim.wg_label_of ~program)
      ~pc_label:(Sim.pc_label_of ~program)
  in
  Alcotest.(check bool) "channel lanes nonempty" true (chans <> []);
  Alcotest.(check bool) "op lanes nonempty" true (ops <> []);
  List.iter
    (fun (lane, t0, t1, _) ->
      Alcotest.(check bool) "channel lane prefixed" true
        (Astring.String.is_prefix ~affix:"chan: " lane);
      Alcotest.(check bool) "interval well-formed" true (0.0 <= t0 && t0 <= t1))
    chans;
  List.iter
    (fun (_, t0, t1, _) ->
      Alcotest.(check bool) "op interval well-formed" true
        (0.0 <= t0 && t0 <= t1))
    ops;
  Alcotest.(check bool) "an aref lane is present" true
    (List.exists
       (fun (lane, _, _, _) ->
         Astring.String.is_infix ~affix:".full[" lane
         || Astring.String.is_infix ~affix:".empty[" lane)
       chans)

(* [Prof.intervals_to_json] (the [channel_timeline] field of `tawac
   profile --channels --obs json`) keeps every channel interval of a
   warp-specialized GEMM in order, with its lane, label and times. *)
let test_channel_intervals_json () =
  let program, recorder, _, _ = recorded_run Engine.run_cta in
  let chans = Prof.channel_intervals recorder ~chan_label:(Sim.chan_label_of ~program) in
  match Json.parse (Json.to_string (Prof.intervals_to_json chans)) with
  | Json.List objs ->
    Alcotest.(check int) "one object per interval" (List.length chans) (List.length objs);
    List.iter2
      (fun (lane, t0, t1, label) j ->
        let str k = Option.bind (Json.member k j) Json.to_str_opt in
        let time k want =
          match Option.bind (Json.member k j) Json.to_float_opt with
          | Some got -> Float.abs (got -. want) <= 1e-9 *. Float.max 1.0 want
          | None -> false
        in
        Alcotest.(check (option string)) "lane" (Some lane) (str "lane");
        Alcotest.(check (option string)) "label" (Some label) (str "label");
        Alcotest.(check bool) (lane ^ " times") true (time "t0" t0 && time "t1" t1))
      chans objs
  | _ -> Alcotest.fail "channel timeline json is not a list"

(* ------------------------------------------------------------------ *)
(* Chrome trace export (satellite: valid, monotone, Perfetto-complete) *)
(* ------------------------------------------------------------------ *)

let field name e =
  match Json.member name e with
  | Some v -> v
  | None -> Alcotest.failf "trace event missing %S" name

let test_trace_shape () =
  let program, recorder, _, _ = recorded_run Engine.run_cta in
  let intervals =
    Prof.op_intervals recorder
      ~wg_label:(Sim.wg_label_of ~program)
      ~pc_label:(Sim.pc_label_of ~program)
    @ Prof.channel_intervals recorder ~chan_label:(Sim.chan_label_of ~program)
  in
  let doc = Trace.to_json (Trace.of_intervals intervals) in
  let parsed = Json.parse (Json.to_string doc) in
  let events =
    match Option.bind (Json.member "traceEvents" parsed) Json.to_list_opt with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents list"
  in
  Alcotest.(check bool) "events present" true (events <> []);
  (* Every event carries the Perfetto-required fields; timestamps are
     non-negative; complete events have non-negative durations and are
     emitted in non-decreasing ts order. *)
  let last_x = ref neg_infinity in
  List.iter
    (fun e ->
      let ph =
        match Json.to_str_opt (field "ph" e) with
        | Some ph -> ph
        | None -> Alcotest.fail "ph not a string"
      in
      Alcotest.(check bool) "name is a string" true
        (Json.to_str_opt (field "name" e) <> None);
      Alcotest.(check bool) "pid present" true
        (Json.to_int_opt (field "pid" e) <> None);
      Alcotest.(check bool) "tid present" true
        (Json.to_int_opt (field "tid" e) <> None);
      let ts =
        match Json.to_float_opt (field "ts" e) with
        | Some ts -> ts
        | None -> Alcotest.fail "ts not a number"
      in
      Alcotest.(check bool) "ts non-negative" true (ts >= 0.0);
      if ph = "X" then begin
        (match Json.to_float_opt (field "dur" e) with
        | Some d -> Alcotest.(check bool) "dur non-negative" true (d >= 0.0)
        | None -> Alcotest.fail "complete event without dur");
        Alcotest.(check bool) "complete events monotone" true (ts >= !last_x);
        last_x := ts
      end)
    events;
  (* Metadata names every tid that carries a complete event. *)
  let meta_tids =
    List.filter_map
      (fun e ->
        if Json.to_str_opt (field "ph" e) = Some "M" then
          Json.to_int_opt (field "tid" e)
        else None)
      events
  in
  List.iter
    (fun e ->
      if Json.to_str_opt (field "ph" e) = Some "X" then
        match Json.to_int_opt (field "tid" e) with
        | Some tid ->
          Alcotest.(check bool) "tid named by metadata" true
            (List.mem tid meta_tids)
        | None -> ())
    events

let test_json_roundtrip () =
  let doc =
    Json.Obj
      [
        ("s", Json.Str "a \"quoted\" line\nwith\ttabs and \\slashes");
        ("i", Json.Int (-42));
        ("f", Json.Float 3.25);
        ("tiny", Json.Float 1.5e-9);
        ("b", Json.Bool true);
        ("z", Json.Null);
        ( "nested",
          Json.List
            [ Json.Obj [ ("k", Json.List [ Json.Int 1; Json.Float 0.5 ]) ];
              Json.List []; Json.Obj [] ] );
      ]
  in
  Alcotest.(check bool) "parse inverts to_string" true
    (Json.parse (Json.to_string doc) = doc);
  (* Whole-number floats re-parse as ints (the emitter prints them
     without a decimal point) — the numeric value survives. *)
  (match Json.parse (Json.to_string (Json.Float 7.0)) with
  | Json.Int 7 | Json.Float 7.0 -> ()
  | _ -> Alcotest.fail "whole-number float did not survive");
  List.iter
    (fun bad ->
      match Json.parse bad with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed input %S" bad)
    [ "{"; "[1,]"; "{\"a\" 1}"; "nul"; "\"unterminated"; "1 2"; "" ]

(* ------------------------------------------------------------------ *)
(* Registry snapshot determinism (satellite)                           *)
(* ------------------------------------------------------------------ *)

let test_registry_snapshot_deterministic () =
  (* Insert in shuffled order; snapshots must come out name-sorted,
     duplicate-free, and identical call to call. *)
  let names = [ "zz"; "aa"; "mm"; "bb"; "yy" ] in
  List.iteri
    (fun i n -> Registry.incr ~by:i ("test.prof.det." ^ n))
    names;
  let s1 = Registry.snapshot () in
  let s2 = Registry.snapshot () in
  Alcotest.(check bool) "snapshots identical" true (s1 = s2);
  let keys = List.map fst s1 in
  Alcotest.(check bool) "name-sorted" true
    (List.sort String.compare keys = keys);
  Alcotest.(check bool) "duplicate-free" true
    (List.sort_uniq String.compare keys = List.sort String.compare keys);
  (* Rendered forms are stable too (the JSON/table view is a pure
     function of the snapshot). *)
  Alcotest.(check bool) "to_json stable" true
    (Json.to_string (Registry.to_json ()) = Json.to_string (Registry.to_json ()));
  List.iter
    (fun n -> Registry.unregister ("test.prof.det." ^ n))
    names

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "prof.attribution",
      [
        Alcotest.test_case "gemm: per-op identical" `Quick test_per_op_gemm;
        Alcotest.test_case "attention: per-op identical" `Quick test_per_op_attention;
        Alcotest.test_case "persistent: per-op identical" `Quick test_per_op_persistent;
        Alcotest.test_case "coop: per-op identical" `Quick test_per_op_coop;
        Alcotest.test_case "per-op json keeps every row" `Quick test_per_op_json;
      ]
      @ qsuite [ prop_conservation ] );
    ( "prof.critical-path",
      [
        Alcotest.test_case "gemm path crosses an aref edge" `Quick
          test_critical_path_aref;
        Alcotest.test_case "engines agree on the path" `Quick
          test_critical_path_engines_agree;
        Alcotest.test_case "synthetic two-WG ping" `Quick
          test_critical_path_synthetic;
      ] );
    ( "prof.timeline",
      [
        Alcotest.test_case "channel + op lanes" `Quick test_channel_intervals;
        Alcotest.test_case "channel lanes as json" `Quick test_channel_intervals_json;
      ] );
    ( "prof.trace",
      [
        Alcotest.test_case "perfetto shape from a real run" `Quick
          test_trace_shape;
        Alcotest.test_case "json parser round-trip" `Quick test_json_roundtrip;
      ] );
    ( "prof.registry",
      [
        Alcotest.test_case "snapshot deterministic" `Quick
          test_registry_snapshot_deterministic;
      ] );
  ]
