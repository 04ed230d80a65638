(* Tests for the tawa_obs telemetry subsystem (PR 5): the JSON
   emitter's escaping and pretty-printing, a round-trip smoke against
   the bench trajectory shape, the metric registry, per-pass compiler
   timers, the Chrome trace export,
   and — the load-bearing part — differential tests pinning stall
   attribution and channel occupancy to be bit-identical between the
   decoded engine and the tree-walking oracle on compiled kernels. *)

open Tawa_machine
open Tawa_gpusim
module Flow = Tawa_core.Flow
module Json = Tawa_obs.Json
module Registry = Tawa_obs.Registry
module Stall = Tawa_obs.Stall
module Trace = Tawa_obs.Trace

(* ------------------------------------------------------------------ *)
(* A minimal JSON validity checker (recursive descent over the grammar;
   accepts exactly well-formed JSON). Only used to assert that
   everything we emit parses — no value reconstruction.               *)
(* ------------------------------------------------------------------ *)

exception Bad

let json_valid (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    if peek () = Some c then advance () else raise Bad
  in
  let literal lit =
    let l = String.length lit in
    if !pos + l <= n && String.sub s !pos l = lit then pos := !pos + l else raise Bad
  in
  let is_hex = function '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true | _ -> false in
  let parse_string () =
    expect '"';
    let closed = ref false in
    while not !closed do
      match peek () with
      | None -> raise Bad
      | Some '"' ->
        advance ();
        closed := true
      | Some '\\' -> (
        advance ();
        match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            match peek () with
            | Some c when is_hex c -> advance ()
            | _ -> raise Bad
          done
        | _ -> raise Bad)
      | Some c when Char.code c < 0x20 -> raise Bad
      | Some _ -> advance ()
    done
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let digits () =
      let d0 = !pos in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        advance ()
      done;
      if !pos = d0 then raise Bad
    in
    digits ();
    if peek () = Some '.' then begin
      advance ();
      digits ()
    end;
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ());
    if !pos = start then raise Bad
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '"' -> parse_string ()
    | Some '{' ->
      advance ();
      skip_ws ();
      if peek () = Some '}' then advance ()
      else begin
        let rec members () =
          skip_ws ();
          parse_string ();
          skip_ws ();
          expect ':';
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            members ()
          | Some '}' -> advance ()
          | _ -> raise Bad
        in
        members ()
      end
    | Some '[' ->
      advance ();
      skip_ws ();
      if peek () = Some ']' then advance ()
      else begin
        let rec elements () =
          parse_value ();
          skip_ws ();
          match peek () with
          | Some ',' ->
            advance ();
            elements ()
          | Some ']' -> advance ()
          | _ -> raise Bad
        in
        elements ()
      end
    | Some 't' -> literal "true"
    | Some 'f' -> literal "false"
    | Some 'n' -> literal "null"
    | Some _ -> parse_number ()
    | None -> raise Bad
  in
  try
    parse_value ();
    skip_ws ();
    !pos = n
  with Bad -> false

(* ------------------------------------------------------------------ *)
(* Json emitter                                                        *)
(* ------------------------------------------------------------------ *)

let test_json_escape () =
  let out = Json.to_string (Json.Str "a\"b\\c\nd\te\rf\x01g") in
  Alcotest.(check string)
    "control and quote escapes" "\"a\\\"b\\\\c\\nd\\te\\rf\\u0001g\"\n" out;
  (* Multi-byte UTF-8 passes through unescaped (JSON strings are
     unicode text). *)
  let eacute = "caf\xc3\xa9" in
  Alcotest.(check string) "utf-8 passthrough" ("\"" ^ eacute ^ "\"\n")
    (Json.to_string (Json.Str eacute));
  Alcotest.(check bool) "escaped string parses" true
    (json_valid (String.trim (Json.to_string (Json.Str "a\"b\\c\nd\x02"))))

let test_json_nonfinite () =
  Alcotest.(check string) "nan is null" "null\n" (Json.to_string (Json.Float Float.nan));
  Alcotest.(check string) "inf is null" "null\n"
    (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "-inf is null" "null\n"
    (Json.to_string (Json.Float Float.neg_infinity));
  let doc = Json.Obj [ ("a", Json.Float Float.nan); ("b", Json.Float 1.5) ] in
  Alcotest.(check bool) "doc with non-finite floats parses" true
    (json_valid (String.trim (Json.to_string doc)))

let test_json_nested () =
  let doc =
    Json.Obj
      [ ("empty_obj", Json.Obj []);
        ("empty_list", Json.List []);
        ("nested", Json.Obj [ ("xs", Json.List [ Json.Int 1; Json.Bool false; Json.Null ]) ]);
      ]
  in
  let out = Json.to_string doc in
  Alcotest.(check bool) "nested doc parses" true (json_valid (String.trim out));
  (* Two-space indentation per object level. *)
  Alcotest.(check bool) "inner keys indented" true
    (Astring.String.is_infix ~affix:"  \"nested\": {\n    \"xs\": [1, false, null]" out)

(* The shape written by `bench --json` (schema, figures list, caches,
   telemetry). Rendering it must produce valid JSON even with hostile
   strings and non-finite floats in the leaves. *)
let test_json_bench_shape () =
  let doc =
    Json.Obj
      [ ("schema", Json.Str "tawa-bench-trajectory/v1");
        ("pr", Json.Int 4);
        ( "figures",
          Json.List
            [ Json.Obj
                [ ("name", Json.Str "fig\"8\\weird\n");
                  ("reference_seconds", Json.Float 1.25);
                  ("engine_speedup", Json.Float Float.infinity);
                  ("data", Json.Null);
                ]
            ] );
        ( "compile_cache",
          Json.Obj
            [ ("hits", Json.Int 10); ("misses", Json.Int 3); ("evictions", Json.Int 0) ] );
        ("telemetry", Json.Obj [ ("pool.domains_spawned", Json.Int 0) ]);
      ]
  in
  Alcotest.(check bool) "bench-shaped doc parses" true
    (json_valid (String.trim (Json.to_string doc)))

(* `tawac profile gemm.tw --ops --critical-path --obs json`, as pinned
   in bin/fixtures/profile_ops_json.expected, is one JSON value: a list
   with the kernel's object, its hot ops and critical path inside. *)
let test_json_profile_golden () =
  match Json.of_file (Paths.fixture "profile_ops_json.expected") with
  | Json.List [ kernel ] ->
    Alcotest.(check (option string)) "kernel" (Some "matmul")
      (Option.bind (Json.member "kernel" kernel) Json.to_str_opt);
    List.iter
      (fun field ->
        match Option.bind (Json.member field kernel) Json.to_list_opt with
        | Some (_ :: _) -> ()
        | _ -> Alcotest.failf "no %s list in the kernel's object" field)
      [ "ops"; "critical_path" ]
  | _ -> Alcotest.fail "expected a list holding one kernel object"

(* ------------------------------------------------------------------ *)
(* Registry                                                            *)
(* ------------------------------------------------------------------ *)

let lookup name snap =
  match List.assoc_opt name snap with
  | Some v -> v
  | None -> Alcotest.failf "metric %s missing from snapshot" name

let test_registry_counters () =
  Registry.incr "test.obs.counter";
  Registry.incr ~by:41 "test.obs.counter";
  Registry.set_float "test.obs.cell" 2.5;
  Registry.max_float "test.obs.cell" 1.0 (* lower: no-op *);
  Registry.observe "test.obs.timer" 0.25;
  Registry.observe "test.obs.timer" 0.50;
  Registry.register_gauge "test.obs.gauge" (fun () -> Registry.Str "hello");
  let snap = Registry.snapshot () in
  Alcotest.(check bool) "counter" true (lookup "test.obs.counter" snap = Registry.Int 42);
  Alcotest.(check bool) "cell" true (lookup "test.obs.cell" snap = Registry.Float 2.5);
  Alcotest.(check bool) "timer total" true
    (lookup "test.obs.timer.seconds" snap = Registry.Float 0.75);
  Alcotest.(check bool) "timer calls" true
    (lookup "test.obs.timer.calls" snap = Registry.Int 2);
  Alcotest.(check bool) "gauge" true (lookup "test.obs.gauge" snap = Registry.Str "hello");
  (* Snapshot is name-sorted. *)
  let names = List.map fst snap in
  Alcotest.(check bool) "sorted" true (List.sort String.compare names = names);
  (* Rendered forms parse / contain the metrics. *)
  Alcotest.(check bool) "to_json parses" true
    (json_valid (String.trim (Json.to_string (Registry.to_json ()))));
  Alcotest.(check bool) "to_table mentions counter" true
    (Astring.String.is_infix ~affix:"test.obs.counter" (Registry.to_table ()));
  (* Reset zeroes counters/cells/timers but keeps gauges installed. *)
  Registry.reset ();
  let snap = Registry.snapshot () in
  Alcotest.(check bool) "counter reset" true
    (lookup "test.obs.counter" snap = Registry.Int 0);
  Alcotest.(check bool) "gauge survives reset" true
    (lookup "test.obs.gauge" snap = Registry.Str "hello");
  Registry.unregister "test.obs.gauge";
  Alcotest.(check bool) "unregistered" true
    (List.assoc_opt "test.obs.gauge" (Registry.snapshot ()) = None)

let test_registry_time () =
  Registry.unregister "test.obs.timed";
  let r = Registry.time "test.obs.timed" (fun () -> 7) in
  Alcotest.(check int) "result threads through" 7 r;
  (match List.assoc_opt "test.obs.timed.calls" (Registry.snapshot ()) with
  | Some (Registry.Int 1) -> ()
  | _ -> Alcotest.fail "timer not recorded");
  (* Exceptions still record the observation. *)
  (try Registry.time "test.obs.timed" (fun () -> failwith "boom") with Failure _ -> ());
  match List.assoc_opt "test.obs.timed.calls" (Registry.snapshot ()) with
  | Some (Registry.Int 2) -> ()
  | _ -> Alcotest.fail "exceptional timer not recorded"

(* Timers read the wall clock without any [set_clock] call: a sleep
   burns no CPU time, so a CPU-time clock would record about 0. *)
let test_registry_wall_clock () =
  Registry.unregister "test.obs.sleep";
  Registry.time "test.obs.sleep" (fun () -> Unix.sleepf 0.05);
  match List.assoc_opt "test.obs.sleep.seconds" (Registry.snapshot ()) with
  | Some (Registry.Float s) ->
    Alcotest.(check bool) (Printf.sprintf "slept 0.05 s, recorded %.4f s" s) true (s >= 0.04)
  | _ -> Alcotest.fail "timer not recorded"

let test_registry_progcache_gauges () =
  let c : int Tawa_machine.Progcache.t =
    Tawa_machine.Progcache.create ~name:"test-obs" ~max_entries:2 ()
  in
  ignore (Tawa_machine.Progcache.find_or_add c ~key:"a" (fun () -> 1));
  ignore (Tawa_machine.Progcache.find_or_add c ~key:"a" (fun () -> 1));
  ignore (Tawa_machine.Progcache.find_or_add c ~key:"b" (fun () -> 2));
  ignore (Tawa_machine.Progcache.find_or_add c ~key:"c" (fun () -> 3));
  let s = Tawa_machine.Progcache.stats c in
  Alcotest.(check int) "hits" 1 s.Tawa_machine.Progcache.hits;
  Alcotest.(check int) "misses" 3 s.Tawa_machine.Progcache.misses;
  Alcotest.(check int) "evictions" 2 s.Tawa_machine.Progcache.evictions;
  let snap = Registry.snapshot () in
  Alcotest.(check bool) "hits gauge" true
    (lookup "progcache.test-obs.hits" snap = Registry.Int 1);
  Alcotest.(check bool) "evictions gauge" true
    (lookup "progcache.test-obs.evictions" snap = Registry.Int 2);
  (* The long-lived caches registered at module init are visible too. *)
  Alcotest.(check bool) "flow.compile cache registered" true
    (List.assoc_opt "progcache.flow.compile.hits" snap <> None);
  Alcotest.(check bool) "engine.decode cache registered" true
    (List.assoc_opt "progcache.engine.decode.hits" snap <> None);
  Alcotest.(check bool) "pool gauge registered" true
    (List.assoc_opt "pool.domains_spawned" snap <> None);
  List.iter
    (fun f -> Registry.unregister ("progcache.test-obs." ^ f))
    [ "hits"; "misses"; "evictions"; "entries" ]

(* ------------------------------------------------------------------ *)
(* Pass-pipeline telemetry                                             *)
(* ------------------------------------------------------------------ *)

let test_pass_telemetry () =
  let tiles = { Tawa_frontend.Kernels.block_m = 16; block_n = 16; block_k = 8 } in
  ignore (Tawa_passes.Manager.compile (Tawa_frontend.Kernels.gemm ~tiles ()));
  (* Per-pass timers landed in the registry. *)
  let snap = Registry.snapshot () in
  Alcotest.(check bool) "canonicalize timer registered" true
    (List.assoc_opt "passes.canonicalize.calls" snap <> None);
  Alcotest.(check bool) "warp-specialize timer registered" true
    (List.assoc_opt "passes.warp-specialize.calls" snap <> None)

(* ------------------------------------------------------------------ *)
(* Chrome trace export                                                 *)
(* ------------------------------------------------------------------ *)

let test_trace_export () =
  let intervals =
    [ ("WG0", 0.0, 10.0, "compute"); ("TMA", 2.0, 8.0, "tma(0)");
      ("WG0", 10.0, 12.0, "stall(mbar)"); ("TC", 5.0, 9.0, "wgmma");
    ]
  in
  let events = Trace.of_intervals intervals in
  let units = [ "WG0"; "TMA"; "TC" ] in
  (* One thread-name metadata record per distinct unit... *)
  List.iter
    (fun u ->
      Alcotest.(check bool)
        (Printf.sprintf "metadata for %s" u)
        true
        (List.exists
           (fun (e : Trace.event) ->
             e.Trace.ph = "M" && e.Trace.args = [ ("name", Json.Str u) ])
           events))
    units;
  (* ...and at least one complete event per unit: resolve each unit's
     tid from its metadata record, then look for an "X" on that tid. *)
  List.iter
    (fun u ->
      let tid =
        match
          List.find_opt
            (fun (e : Trace.event) ->
              e.Trace.ph = "M" && e.Trace.args = [ ("name", Json.Str u) ])
            events
        with
        | Some e -> e.Trace.tid
        | None -> Alcotest.failf "no metadata for %s" u
      in
      Alcotest.(check bool)
        (Printf.sprintf "complete event for %s" u)
        true
        (List.exists
           (fun (e : Trace.event) -> e.Trace.ph = "X" && e.Trace.tid = tid)
           events))
    units;
  let out = Json.to_string (Trace.to_json events) in
  Alcotest.(check bool) "trace JSON parses" true (json_valid (String.trim out));
  Alcotest.(check bool) "traceEvents key present" true
    (Astring.String.is_infix ~affix:"\"traceEvents\"" out)

(* A real kernel end to end: trace one CTA through the profiler's
   recorder, as [tawac profile --trace] does, and check every lane
   (warp groups and aref channels) contributed at least one complete
   event. *)
let test_trace_from_sim () =
  let tiles = { Tawa_frontend.Kernels.block_m = 16; block_n = 16; block_k = 8 } in
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1; persistent = false;
          use_coarse = false }
      (Tawa_frontend.Kernels.gemm ~tiles ())
  in
  let program = compiled.Flow.program in
  let recorder = Tawa_obs.Prof.create () in
  ignore
    (Engine.run_cta ~recorder ~cfg:Config.h100 ~program
       ~params:[ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint 32; Sim.Rint 32; Sim.Rint 16 ]
       ~num_programs:[| 2; 2; 1 |]
       ~pop_global:(fun () -> -1) ());
  let intervals =
    Tawa_obs.Prof.op_intervals recorder
      ~wg_label:(Sim.wg_label_of ~program)
      ~pc_label:(Sim.pc_label_of ~program)
    @ Tawa_obs.Prof.channel_intervals recorder ~chan_label:(Sim.chan_label_of ~program)
  in
  let events = Trace.of_intervals intervals in
  let complete = List.filter (fun (e : Trace.event) -> e.Trace.ph = "X") events in
  let meta = List.filter (fun (e : Trace.event) -> e.Trace.ph = "M") events in
  Alcotest.(check bool) "some complete events" true (List.length complete > 0);
  Alcotest.(check bool) "several lanes active" true (List.length meta >= 2);
  List.iter
    (fun (m : Trace.event) ->
      Alcotest.(check bool) "every named lane has a complete event" true
        (List.exists (fun (e : Trace.event) -> e.Trace.tid = m.Trace.tid) complete))
    meta;
  Alcotest.(check bool) "sim trace JSON parses" true
    (json_valid (String.trim (Json.to_string (Trace.to_json events))))

(* ------------------------------------------------------------------ *)
(* Stall attribution: engines agree bit for bit on compiled kernels    *)
(* ------------------------------------------------------------------ *)

(* The CTA [Launch.estimate] simulates, on the oracle and on the
   decoded engine: the whole outcome — cycles, stats, stall attribution
   and channel occupancy — must be bit-identical. *)
let check_profile_diff name (compiled : Flow.compiled) ~params ~grid =
  let o, d = Oracle.estimate_both ~cfg:Config.h100 compiled.Flow.program ~params ~grid in
  Alcotest.(check (float 0.0)) (name ^ ": cycles identical") o.Sim.cycles d.Sim.cycles;
  Alcotest.(check bool)
    (name ^ ": stall attribution and channel occupancy bit-identical") true
    (Oracle.outcomes_equal o d);
  (* The acceptance invariant: every WG's bucket sum equals the CTA's
     total simulated cycles (idle closes the gap). *)
  let pr = o.Sim.profile in
  Array.iter
    (fun (w : Sim.wg_prof) ->
      let sum = Array.fold_left ( +. ) 0.0 w.Sim.p_buckets in
      Alcotest.(check bool)
        (Printf.sprintf "%s: WG%d bucket sum %.3f ~ wall %.3f" name w.Sim.p_index sum
           pr.Sim.wall)
        true
        (Float.abs (sum -. pr.Sim.wall) <= 1e-6 *. Float.max 1.0 pr.Sim.wall))
    pr.Sim.wg_profs

let gemm_params ~m ~n ~kk =
  [ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint m; Sim.Rint n; Sim.Rint kk ]

let ws_gemm ?(persistent = false) ?(coop = 1) ?(d = 2) ?(p = 1) () =
  let tiles = { Tawa_frontend.Kernels.block_m = 16; block_n = 16; block_k = 8 } in
  Flow.compile
    ~options:
      { Flow.default_options with aref_depth = d; mma_depth = p; num_consumer_wgs = coop; persistent;
        use_coarse = false }
    (Tawa_frontend.Kernels.gemm ~tiles ())

let test_profile_diff_gemm () =
  check_profile_diff "ws gemm" (ws_gemm ())
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~grid:(2, 2, 1);
  check_profile_diff "sw-pipelined gemm"
    (Flow.compile
       ~options:{ Flow.default_options with strategy = Flow.Sw_pipelined 3; aref_depth = 3 }
       (Tawa_frontend.Kernels.gemm
          ~tiles:{ Tawa_frontend.Kernels.block_m = 16; block_n = 16; block_k = 8 }
          ()))
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~grid:(2, 2, 1);
  check_profile_diff "coop gemm" (ws_gemm ~coop:2 ())
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~grid:(2, 2, 1)

let test_profile_diff_attention () =
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1; persistent = false;
          use_coarse = true }
      (Tawa_frontend.Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 ())
  in
  check_profile_diff "coarse attention" compiled
    ~params:[ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint 32 ]
    ~grid:(2, 1, 1)

let test_profile_diff_persistent () =
  check_profile_diff "persistent gemm"
    (ws_gemm ~persistent:true ())
    ~params:(gemm_params ~m:32 ~n:32 ~kk:16)
    ~grid:(2, 2, 1)

(* Property: over compile knobs, per-WG bucket sums equal the CTA
   wall-clock, so the grand total is wall x WG count (fp tolerance:
   the sums re-add per-instruction float increments). *)
let prop_bucket_sums =
  QCheck.Test.make ~name:"bucket sums equal wall-clock x WG count" ~count:15
    QCheck.(
      quad (int_range 1 3) (int_range 1 2) (int_range 1 3) QCheck.bool)
    (fun (d, p, trip, persistent) ->
      let compiled = ws_gemm ~persistent ~d ~p () in
      let t =
        Launch.estimate ~cfg:Config.h100 compiled.Flow.program
          ~params:(gemm_params ~m:32 ~n:32 ~kk:(trip * 8))
          ~grid:(2, 2, 1) ~flops:1e6
      in
      match t.Launch.profile with
      | None -> false
      | Some prof ->
        let tol = 1e-6 *. Float.max 1.0 prof.Sim.wall in
        let per_wg_ok =
          Array.for_all
            (fun (w : Sim.wg_prof) ->
              Float.abs (Array.fold_left ( +. ) 0.0 w.Sim.p_buckets -. prof.Sim.wall)
              <= tol)
            prof.Sim.wg_profs
        in
        let total =
          Array.fold_left
            (fun acc (w : Sim.wg_prof) ->
              acc +. Array.fold_left ( +. ) 0.0 w.Sim.p_buckets)
            0.0 prof.Sim.wg_profs
        in
        let n = Float.of_int (Array.length prof.Sim.wg_profs) in
        per_wg_ok
        && Float.abs (total -. (prof.Sim.wall *. n)) <= n *. tol)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "obs.json",
      [
        Alcotest.test_case "string escaping" `Quick test_json_escape;
        Alcotest.test_case "non-finite floats" `Quick test_json_nonfinite;
        Alcotest.test_case "nested pretty-printing" `Quick test_json_nested;
        Alcotest.test_case "bench trajectory shape" `Quick test_json_bench_shape;
        Alcotest.test_case "profile golden is one value" `Quick test_json_profile_golden;
      ] );
    ( "obs.registry",
      [
        Alcotest.test_case "counters, timers, gauges" `Quick test_registry_counters;
        Alcotest.test_case "time wrapper" `Quick test_registry_time;
        Alcotest.test_case "progcache + pool gauges" `Quick test_registry_progcache_gauges;
        Alcotest.test_case "pass-pipeline telemetry" `Quick test_pass_telemetry;
        Alcotest.test_case "wall clock by default" `Quick test_registry_wall_clock;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "interval conversion" `Quick test_trace_export;
        Alcotest.test_case "simulated CTA trace" `Quick test_trace_from_sim;
      ] );
    ( "obs.attribution",
      [
        Alcotest.test_case "gemm: engines agree" `Quick test_profile_diff_gemm;
        Alcotest.test_case "attention: engines agree" `Quick test_profile_diff_attention;
        Alcotest.test_case "persistent: engines agree" `Quick test_profile_diff_persistent;
      ]
      @ qsuite [ prop_bucket_sums ] );
  ]
