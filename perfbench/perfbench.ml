(* The repository's benchmark: one workload per process, every host-time
   metric calibrated against host speed, every op's output checked.

     perfbench.exe --workload W --seed N --seconds S --trace 0|1 --calib-ref-ms K
     perfbench.exe --self-test

   The last line of standard output is the result: one JSON object with
   [correct], [attempted], [failed] and [metrics]. With [--trace 0] the
   metrics are the end-to-end ones; with [--trace 1] they are the
   per-layer ones, from spans recorded around each layer's calls (see
   README.md in this directory for what every metric means). A record
   with the host fingerprint, raw wall-clock diagnostics and the metrics
   is written under perfbench/_out/, with the Chrome trace and layer
   table of a traced run. *)

open Tawa_core
open Tawa_gpusim
module Pool = Tawa_pool.Pool
module Registry = Tawa_obs.Registry
module Graph = Tawa_graph.Graph

(* ----------------------------- workloads --------------------------- *)

(* One op: [pre] and the returned check run outside the measurement;
   [run] is what is timed. [key] names the op's element of the round
   (its family, its row). *)
type op = { key : int; pre : unit -> unit; run : traced:bool -> unit -> unit -> bool }

type inst = {
  next : unit -> op;
  round : int; (* ops per balanced round; runs end on a round boundary *)
  tflops : unit -> float; (* geomean Tawa TFLOPS, simulated, exact *)
  setup_ok : bool;
  waves : int;
  cycles_per_op : float; (* simulated cycles an op adds outside estimates *)
}

type workload = {
  name : string;
  domains : int;
  setup : sys:Calib.meter -> oracle:Calib.meter -> seed:int -> inst;
}

(* Endless seeded permutations of [xs]: every run covers each element
   equally often per round, in a seed-specific order. *)
let shuffled ~seed xs =
  let rng = Random.State.make [| seed |] in
  let queue = ref [] in
  fun () ->
    if !queue = [] then begin
      let a = Array.of_list xs in
      for i = Array.length a - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = a.(i) in
        a.(i) <- a.(j);
        a.(j) <- t
      done;
      queue := Array.to_list a
    end;
    match !queue with
    | x :: rest ->
      queue := rest;
      x
    | [] -> invalid_arg "shuffled: empty"

let autotune_cold =
  let setup ~sys ~oracle:_ ~seed =
    (* First winner of every family; later searches must reproduce it. *)
    let firsts = Hashtbl.create 32 in
    let check label family (best : Autotune.measurement) =
      let c = best.Autotune.candidate in
      Flow.check_compiled
        (Flow.compile ~options:(Autotune.options_of c) (Autotune.kernel_of family c))
      = []
      &&
      match Hashtbl.find_opt firsts label with
      | Some first -> Work.same_measurement first best
      | None ->
        Hashtbl.replace firsts label best;
        true
    in
    (* Warm-up: one GEMM and one attention family, from cold caches. *)
    let setup_ok =
      List.for_all
        (fun label ->
          let family = List.assoc label Work.autotune_families in
          Work.cold_caches ();
          let r = Calib.measure sys (fun () -> Autotune.search family) in
          check label family r.Autotune.best)
        [ "gemm.f16.k512"; "mha.f16.causal.l4096" ]
    in
    let next = shuffled ~seed (List.mapi (fun k f -> (k, f)) Work.autotune_families) in
    { next =
        (fun () ->
          let key, (label, family) = next () in
          { key; pre = Work.cold_caches;
            run =
              (fun ~traced () ->
                let best =
                  if traced then Work.traced_search family
                  else (Autotune.search family).Autotune.best
                in
                fun () -> check label family best) });
      round = List.length Work.autotune_families;
      tflops =
        (fun () ->
          Calib.geomean
            (List.map
               (fun (label, _) ->
                 match Hashtbl.find_opt firsts label with
                 | Some m -> m.Autotune.tflops
                 | None -> nan)
               Work.autotune_families));
      setup_ok; waves = 0; cycles_per_op = 0.0 }
  in
  { name = "autotune-cold"; domains = 1; setup }

let paper_sweep =
  let setup ~sys ~oracle:_ ~seed =
    Work.cold_caches ();
    let refs =
      List.map
        (fun (row : Work.row) -> (row, Calib.measure sys (fun () -> row.Work.run ~traced:false)))
        Work.paper_rows
    in
    let setup_ok = List.for_all (fun (row, cells) -> Work.fails_where_expected row cells) refs in
    let next = shuffled ~seed (List.mapi (fun k r -> (k, r)) refs) in
    { next =
        (fun () ->
          let key, ((row : Work.row), want) = next () in
          { key; pre = ignore;
            run =
              (fun ~traced () ->
                let got = row.Work.run ~traced in
                fun () -> Work.same_cells got want) });
      round = List.length refs;
      tflops = (fun () -> Calib.geomean (List.map (fun (_, c) -> Work.tawa_tflops c) refs));
      setup_ok; waves = 0; cycles_per_op = 0.0 }
  in
  { name = "paper-sweep"; domains = 1; setup }

let functional_graph =
  let setup ~sys ~oracle ~seed =
    Work.cold_caches ();
    let inputs = Work.graph_inputs ~seed in
    let reference =
      Calib.measure oracle (fun () ->
          Span.with_ "check.reference" (fun () -> Work.graph_reference inputs))
    in
    let graph, outputs, flops, inst =
      Calib.measure sys (fun () ->
          let graph, outputs, flops = Span.with_ "graph.build" (fun () -> Work.graph_build inputs) in
          ( graph, outputs, flops,
            Span.with_ "graph.instantiate" (fun () ->
                Graph.instantiate ~cfg:Config.functional_test graph) ))
    in
    let g = { Work.outputs; reference } in
    let warm = Calib.measure sys (fun () -> Graph.replay inst) in
    let model = Graph.overlap_model inst warm in
    let op =
      { key = 0; pre = (fun () -> Work.graph_clear g);
        run =
          (fun ~traced () ->
            if traced then Work.traced_replay inst else ignore (Graph.replay inst);
            fun () -> Work.graph_check g) }
    in
    { next = (fun () -> op);
      round = 1;
      tflops = (fun () -> Config.tflops inst.Graph.cfg ~flops ~cycles:model.Graph.m_graph_cycles);
      setup_ok = Work.graph_check g;
      waves = Graph.num_waves graph;
      cycles_per_op = model.Graph.m_graph_cycles }
  in
  { name = "functional-graph"; domains = 2; setup }

let workloads = [ autotune_cold; paper_sweep; functional_graph ]

(* ------------------------------ phases ----------------------------- *)

(* Per measured op, in order: its segment, whether its output checked
   out, its round element, and the instructions the simulator retired
   during it. *)
type phase = {
  segs : Calib.segment array;
  ok : bool array;
  keys : int array;
  instrs : int array;
  attempted : int;
  failed : int;
  wall : float;
}

let run_phase (i : inst) ~cal ~ref_s ~seconds ~min_ops ~traced =
  let m = Calib.meter cal ~ref_s in
  let oks = ref [] and nok = ref 0 and attempted = ref 0 and failed = ref 0 in
  let keys = ref [] and instrs = ref [] and unmeasured = ref 0 in
  let t0 = Calib.now () in
  let cap = Float.max (4.0 *. seconds) 60.0 in
  let finished () =
    let el = Calib.now () -. t0 in
    el >= cap || (el >= seconds && !nok >= min_ops && !attempted mod i.round = 0)
  in
  let report what e =
    Printf.eprintf "perfbench: op %d %s: %s\n%!" !attempted what (Printexc.to_string e);
    false
  in
  while not (finished ()) do
    let op = i.next () in
    incr attempted;
    let ok =
      match op.pre () with
      | exception e ->
        incr unmeasured;
        report "failed before it was timed" e
      | () ->
        Span.current_op := !attempted - !unmeasured;
        let i0 = Engine.instructions_retired () in
        let ok =
          match Calib.measure m (fun () -> Span.with_ "op" (op.run ~traced)) with
          | exception e -> report "raised" e
          | check -> ( try check () with e -> report "check raised" e)
        in
        instrs := (Engine.instructions_retired () - i0) :: !instrs;
        keys := op.key :: !keys;
        oks := ok :: !oks;
        ok
    in
    if ok then incr nok else incr failed
  done;
  let arr l = Array.of_list (List.rev l) in
  { segs = Array.of_list (Calib.finish m); ok = arr !oks; keys = arr !keys;
    instrs = arr !instrs; attempted = !attempted; failed = !failed;
    wall = Calib.now () -. t0 }

let sum f a = Array.fold_left (fun acc x -> acc +. f x) 0.0 a

(* Calibrated over wall seconds of measured op [op] (1-based), which
   scales that op's spans. *)
let op_factor (p : phase) op =
  if op >= 1 && op <= Array.length p.segs then
    let s = p.segs.(op - 1) in
    s.Calib.cal /. s.Calib.wall
  else 1.0

let ok_list p f = List.filteri (fun k _ -> p.ok.(k)) (Array.to_list (Array.map f p.segs))

(* ------------------------------ metrics ---------------------------- *)

type metric = { name : string; value : float; unit_ : string }

let metric name unit_ value = { name; value; unit_ }

(** Throughput of one balanced round, with every element of the round
    at the median calibrated time of its checked-OK ops: (ops/s,
    simulated Minstr/s). As with [op_ms_p50], a slow spell that covers
    less than half of an element's ops does not move it. *)
let round_rates (p : phase) =
  let by_key = Hashtbl.create 64 in
  Array.iteri
    (fun k (s : Calib.segment) ->
      if p.ok.(k) then
        let ts, is = Option.value ~default:([], []) (Hashtbl.find_opt by_key p.keys.(k)) in
        Hashtbl.replace by_key p.keys.(k) (s.Calib.cal :: ts, Float.of_int p.instrs.(k) :: is))
    p.segs;
  let n, t, i =
    Hashtbl.fold
      (fun _ (ts, is) (n, t, i) -> (n + 1, t +. Calib.median ts, i +. Calib.median is))
      by_key (0, 0.0, 0.0)
  in
  (Float.of_int n /. t, i /. t /. 1e6)

(** End-to-end metrics from calibrated set-up totals and the timed
    phase. A pure function of its inputs, so the self-test can feed it
    synthetic timings. *)
let end_to_end ~setups ~(phase : phase) ~tflops ~peak_mb =
  let n = phase.attempted in
  let nok = n - phase.failed in
  let lat = ok_list phase (fun s -> s.Calib.cal *. 1e3) in
  let ops_per_s, minstr_per_s = round_rates phase in
  [ metric "setup_s" "s" (Calib.median setups);
    metric "ops_per_s" "ops/s" ops_per_s;
    metric "op_ms_p50" "ms" (Calib.median lat) ]
  @ (match Calib.percentile 0.9 lat with
    | Some v -> [ metric "op_ms_p90" "ms" v ]
    | None -> [])
  @ [ metric "sim_minstr_per_s" "Minstr/s" minstr_per_s;
      metric "tawa_tflops_geomean" "TFLOPS" tflops;
      metric "peak_heap_mb" "MB" peak_mb;
      metric "success_rate" "fraction" (if n = 0 then 0.0 else Float.of_int nok /. Float.of_int n) ]

let peak_heap_mb () =
  let from_proc =
    try
      let ic = open_in "/proc/self/status" in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let rec scan () =
            match input_line ic with
            | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
              Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d kB" (fun kb ->
                  Some (Float.of_int kb /. 1024.0))
            | _ -> scan ()
            | exception End_of_file -> None
          in
          scan ())
    with Sys_error _ -> None
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    Float.of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0

(* Span names folded into each per-layer self-time metric. *)
let layer_ms =
  [ ("autotune.search_ms", [ "autotune.search"; "autotune.space" ]);
    ("passes.compile_ms", [ "passes.compile" ]);
    ("codegen.lower_ms", [ "codegen.lower" ]);
    ("analysis.occupancy_ms", [ "analysis.occupancy" ]);
    ("analysis.lint_ms", [ "analysis.lint" ]);
    ("progcache.miss_ms", [ "progcache.miss" ]);
    ("progcache.hit_ms", [ "progcache.hit" ]);
    ("progcache.fingerprint_ms", [ "progcache.fingerprint" ]);
    ("engine.prepare_miss_ms", [ "engine.prepare_miss" ]);
    ("engine.prepare_hit_ms", [ "engine.prepare_hit" ]);
    ("launch.estimate_ms", [ "launch.estimate" ]);
    ("graph.replay_ms", [ "graph.replay"; "graph.cta" ]);
    ("pool.wait_ms", [ "pool.map" ]) ]

let compile_side =
  [ "passes.compile"; "codegen.lower"; "analysis.occupancy"; "analysis.lint";
    "engine.prepare_miss" ]

let registry_value snapshot name =
  match List.assoc_opt name snapshot with
  | Some (Registry.Float f) -> f
  | Some (Registry.Int i) -> Float.of_int i
  | _ -> 0.0

let ratio a b = if b > 0.0 then a /. b else 0.0

(** Per-layer metrics of a traced phase. [spans] are the phase's spans
    (op ids 1..n, matching [phase.segs]); each op's spans are scaled by
    that op's calibration. *)
let per_layer ~(phase : phase) ~spans ~setup_spans ~setup_factor ~(inst : inst)
    ~untraced_ops_per_s ~reference_ms ~before =
  let n = Array.length phase.segs in
  let nf = Float.of_int (max 1 n) in
  let factor = op_factor phase in
  let selfs = Span.self_times spans in
  let self_of names =
    List.fold_left
      (fun acc ((s : Span.span), st) ->
        if List.mem s.Span.name names then acc +. (st *. factor s.Span.op) else acc)
      0.0 selfs
  in
  let dur_of name =
    List.fold_left
      (fun acc (s : Span.span) ->
        if s.Span.name = name then acc +. ((s.Span.t1 -. s.Span.t0) *. factor s.Span.op) else acc)
      0.0 spans
  in
  let count_of name =
    List.fold_left
      (fun acc (s : Span.span) -> if s.Span.name = name then acc + 1 else acc)
      0 spans
  in
  let work_of name =
    List.fold_left
      (fun acc (s : Span.span) -> if s.Span.name = name then acc + s.Span.count else acc)
      0 spans
  in
  let op_total = dur_of "op" in
  let per_op x = x /. nf in
  let ms names = 1e3 *. per_op (self_of names) in
  let hit_ratio hit miss =
    let h = Float.of_int (count_of hit) and m = Float.of_int (count_of miss) in
    ratio h (h +. m)
  in
  let after = Registry.snapshot () in
  let delta name = registry_value after name -. registry_value before name in
  let t = Work.tally in
  let traced_ops_per_s = fst (round_rates phase) in
  let setup_ms name =
    1e3 *. setup_factor
    *. List.fold_left
         (fun acc (s : Span.span) ->
           if s.Span.name = name then acc +. (s.Span.t1 -. s.Span.t0) else acc)
         0.0 setup_spans
  in
  List.map (fun (name, names) -> metric name "ms" (ms names)) layer_ms
  @ [ metric "autotune.measured" "count" (per_op (Float.of_int t.Work.measured));
      metric "autotune.prune_ratio" "ratio"
        (ratio (Float.of_int t.Work.pruned) (Float.of_int t.Work.candidates));
      metric "passes.verify_share" "ratio"
        (ratio (delta "passes.verify.seconds")
           (List.fold_left
              (fun acc (s : Span.span) ->
                if s.Span.name = "passes.compile" then acc +. (s.Span.t1 -. s.Span.t0) else acc)
              0.0 spans));
      metric "passes.ir_ops" "count" (per_op (Float.of_int (work_of "passes.compile")));
      metric "codegen.isa_instrs" "count" (per_op (Float.of_int (work_of "codegen.lower")));
      metric "analysis.replicated_ratio" "ratio"
        (let r = delta "launch.replication.replicated"
         and s = delta "launch.replication.simulated" in
         ratio r (r +. s));
      metric "progcache.hit_ratio" "ratio" (hit_ratio "progcache.hit" "progcache.miss");
      metric "engine.decode_hit_ratio" "ratio"
        (hit_ratio "engine.prepare_hit" "engine.prepare_miss");
      metric "launch.timing_minstr_per_s" "Minstr/s"
        (ratio (Float.of_int (work_of "launch.estimate")) (dur_of "launch.estimate") /. 1e6);
      metric "sim.instructions" "count"
        (per_op (Float.of_int (Array.fold_left ( + ) 0 phase.instrs)));
      metric "sim.cycles" "cycles"
        (per_op (t.Work.cycles +. (Float.of_int n *. inst.cycles_per_op)));
      metric "graph.instantiate_ms" "ms" (setup_ms "graph.instantiate");
      metric "graph.functional_minstr_per_s" "Minstr/s"
        (ratio (Float.of_int (work_of "pool.map")) (dur_of "graph.replay") /. 1e6);
      metric "graph.waves" "count" (Float.of_int inst.waves);
      metric "pool.domains" "count" (Float.of_int (Pool.default_domains ()));
      metric "pool.domains_spawned" "count" (Float.of_int (Pool.domains_spawned ()));
      metric "check.reference_ms" "ms" reference_ms;
      metric "trace.coverage" "ratio" (1.0 -. ratio (self_of [ "op" ]) op_total);
      metric "trace.overhead" "ratio" (ratio traced_ops_per_s untraced_ops_per_s);
      metric "trace.compile_share" "ratio" (ratio (self_of compile_side) op_total);
      metric "trace.launch_share" "ratio" (ratio (self_of [ "launch.estimate" ]) op_total) ]

(* ------------------------------ output ----------------------------- *)

let json_num v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let json_str s = "\"" ^ Tawa_obs.Json.escape s ^ "\""

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}" (json_str m.name)
              (json_num m.value) (json_str m.unit_))
          metrics))

let obj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> json_str k ^ ": " ^ v) kvs) ^ "}"

let out_dir = Filename.concat "perfbench" "_out"

let write_file name contents =
  (try Sys.mkdir out_dir 0o755 with Sys_error _ -> ());
  let path = Filename.concat out_dir name in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let layer_table ~spans ~(phase : phase) =
  let n = Array.length phase.segs in
  let factor = op_factor phase in
  let tbl = Hashtbl.create 32 in
  List.iter
    (fun ((s : Span.span), st) ->
      let ms, calls = Option.value ~default:(0.0, 0) (Hashtbl.find_opt tbl s.Span.name) in
      Hashtbl.replace tbl s.Span.name (ms +. (st *. factor s.Span.op *. 1e3), calls + 1))
    (Span.self_times spans);
  let total = Hashtbl.fold (fun _ (ms, _) acc -> acc +. ms) tbl 0.0 in
  let rows =
    List.sort (fun (_, (a, _)) (_, (b, _)) -> Float.compare b a)
      (Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [])
  in
  Tawa_obs.Tbl.render
    ~header:[ "span"; "layer"; "calls"; "self ms/op"; "share" ]
    (List.map
       (fun (name, (ms, calls)) ->
         [ name; Span.layer name; string_of_int calls;
           Printf.sprintf "%.3f" (ms /. Float.of_int (max 1 n));
           Printf.sprintf "%.1f%%" (100.0 *. ratio ms total) ])
       rows)

(* ------------------------------- run ------------------------------- *)

let run ~(w : workload) ~seed ~seconds ~trace ~ref_ms =
  let nproc = Domain.recommended_domain_count () in
  let domains = min w.domains nproc in
  Pool.set_default_domains (Some domains);
  Registry.set_clock Calib.now;
  let ref_s = ref_ms /. 1e3 in
  let cal = Calib.create ~domains in
  Span.enabled := trace;
  Span.current_op := 0;
  let oracle = Calib.meter cal ~ref_s in
  (* Set up at least five times and for at least two seconds (one set-up
     in a traced run): [setup_s] is the median. Each set-up starts from a
     collected heap without the previous set-up's state, as the first
     one does; the last set-up's state serves the timed phase. *)
  let setup_cal = ref [] and setup_wall = ref [] and setup_ok = ref true and last = ref None in
  let total f segs = List.fold_left (fun a s -> a +. f s) 0.0 segs in
  while
    let n = List.length !setup_cal in
    not (n >= 1 && (trace || (n >= 5 && total Fun.id !setup_wall >= 2.0) || n >= 50))
  do
    last := None;
    Gc.full_major ();
    let sys = Calib.meter cal ~ref_s in
    let inst = w.setup ~sys ~oracle ~seed in
    let segs = Calib.finish sys in
    setup_cal := total (fun s -> s.Calib.cal) segs :: !setup_cal;
    setup_wall := total (fun s -> s.Calib.wall) segs :: !setup_wall;
    setup_ok := !setup_ok && inst.setup_ok;
    last := Some (inst, segs)
  done;
  let inst, last_segs = Option.get !last in
  let setup_cal = !setup_cal and setup_wall = !setup_wall and setup_ok = !setup_ok in
  let reference_ms =
    match Calib.finish oracle with
    | [] -> 0.0
    | segs -> 1e3 *. Calib.median (List.map (fun s -> s.Calib.cal) segs)
  in
  let setup_spans = Span.all () in
  Span.reset ();
  Span.enabled := false;
  let min_ops = Calib.min_samples 0.9 in
  let phase, traced_phase =
    if not trace then (run_phase inst ~cal ~ref_s ~seconds ~min_ops ~traced:false, None)
    else begin
      let half = seconds /. 2.0 in
      let untraced = run_phase inst ~cal ~ref_s ~seconds:half ~min_ops:inst.round ~traced:false in
      let before = Registry.snapshot () in
      Work.reset_tally ();
      Span.enabled := true;
      let tp = run_phase inst ~cal ~ref_s ~seconds:half ~min_ops:inst.round ~traced:true in
      Span.enabled := false;
      (untraced, Some (tp, before))
    end
  in
  Calib.shutdown cal;
  (* A traced run's checks cover its traced ops too. *)
  let attempted, failed =
    match traced_phase with
    | None -> (phase.attempted, phase.failed)
    | Some (tp, _) -> (phase.attempted + tp.attempted, phase.failed + tp.failed)
  in
  let peak = peak_heap_mb () in
  let e2e = end_to_end ~setups:setup_cal ~phase ~tflops:(inst.tflops ()) ~peak_mb:peak in
  let calib_ms = List.map (fun c -> c *. 1e3) cal.Calib.samples in
  let host =
    obj
      [ ("workload", json_str w.name); ("seed", string_of_int seed);
        ("nproc", string_of_int nproc); ("pool_domains", string_of_int domains);
        ("ocaml", json_str Sys.ocaml_version); ("calib_ref_ms", json_num ref_ms);
        ("calib_median_ms", json_num (Calib.median calib_ms));
        ("calib_spread", json_num (Calib.spread calib_ms));
        ("calib_rounds", string_of_int (List.length calib_ms)) ]
  in
  let wall_lat = ok_list phase (fun s -> s.Calib.wall *. 1e3) in
  let raw =
    obj
      [ ("setup_wall_s", json_num (Calib.median setup_wall));
        ("op_wall_ms_p50", json_num (Calib.median wall_lat));
        ("timed_wall_s", json_num phase.wall);
        ("ops_per_wall_s",
         json_num
           (Float.of_int (phase.attempted - phase.failed) /. sum (fun s -> s.Calib.wall) phase.segs));
        ("samples", string_of_int (List.length wall_lat)) ]
  in
  let correct = setup_ok && failed = 0 && attempted > 0 in
  Printf.printf "perfbench %s seed=%d trace=%b\n" w.name seed trace;
  Printf.printf "host: %s\nraw (ungated): %s\n" host raw;
  let metrics =
    match traced_phase with
    | None -> e2e
    | Some (tp, before) ->
      let spans = Span.all () in
      let untraced_ops = List.assoc "ops_per_s" (List.map (fun m -> (m.name, m.value)) e2e) in
      let setup_factor =
        ratio (total (fun s -> s.Calib.cal) last_segs) (total (fun s -> s.Calib.wall) last_segs)
      in
      let layers =
        per_layer ~phase:tp ~spans ~setup_spans ~setup_factor ~inst
          ~untraced_ops_per_s:untraced_ops ~reference_ms ~before
      in
      let stem = Printf.sprintf "%s-s%d" w.name seed in
      let table = layer_table ~spans ~phase:tp in
      let all = setup_spans @ spans in
      let origin = List.fold_left (fun a s -> Float.min a s.Span.t0) infinity all in
      let tpath =
        write_file (stem ^ "-trace.json") (Tawa_obs.Json.to_string (Span.chrome_trace ~origin all))
      in
      let lpath = write_file (stem ^ "-layers.txt") table in
      Printf.printf "%s(traced ops: %d; chrome trace: %s; layer table: %s)\n" table
        (Array.length tp.segs) tpath lpath;
      layers
  in
  List.iter (fun m -> Printf.printf "  %-32s %14.6g %s\n" m.name m.value m.unit_) metrics;
  let line = result_line ~correct ~attempted ~failed metrics in
  ignore
    (write_file
       (Printf.sprintf "%s-s%d%s.json" w.name seed (if trace then "-traced" else ""))
       (obj [ ("host", host); ("raw", raw); ("result", line) ] ^ "\n"));
  print_endline line

(* ----------------------------- self-test --------------------------- *)

let self_test () =
  let failures = ref 0 in
  let expect what b =
    if not b then begin
      incr failures;
      Printf.printf "FAIL %s\n" what
    end
    else Printf.printf "ok   %s\n" what
  in
  (* Calibration: a 1.6x slow-down applied to the ops, the set-up and
     the calibration rounds alike leaves every calibrated metric
     unchanged. *)
  let ref_s = 0.004 in
  let walls = List.init 150 (fun i -> 0.010 +. (0.0001 *. Float.of_int (i mod 37))) in
  let cals = List.init 151 (fun i -> 0.0037 +. (0.00001 *. Float.of_int (i mod 11))) in
  let phase_at slow =
    let segs =
      Array.of_list
        (List.mapi
           (fun i w ->
             let c0 = slow *. List.nth cals i and c1 = slow *. List.nth cals (i + 1) in
             { Calib.wall = slow *. w; cal = Calib.calibrated ~ref_s ~c0 ~c1 (slow *. w) })
           walls)
    in
    let n = Array.length segs in
    { segs; ok = Array.make n true; keys = Array.init n (fun i -> i mod 7);
      instrs = Array.init n (fun i -> 1_000_000 + (1000 * (i mod 7))); attempted = n;
      failed = 0; wall = 1.0 }
  in
  let metrics_at slow =
    let setups =
      List.map (fun w -> Calib.calibrated ~ref_s ~c0:(slow *. 0.0041) ~c1:(slow *. 0.0039) (slow *. w))
        [ 0.5; 0.52; 0.49 ]
    in
    end_to_end ~setups ~phase:(phase_at slow) ~tflops:700.0 ~peak_mb:100.0
  in
  let base = metrics_at 1.0 and slow = metrics_at 1.6 in
  List.iter2
    (fun a b ->
      expect
        (Printf.sprintf "calibrated %s unchanged under a 1.6x slow-down" a.name)
        (a.name = b.name && Float.abs (a.value -. b.value) <= 1e-9 *. Float.abs a.value))
    base slow;
  expect "raw wall time does move under the slow-down"
    (let p = phase_at 1.6 and q = phase_at 1.0 in
     Float.abs ((sum (fun s -> s.Calib.wall) p.segs /. sum (fun s -> s.Calib.wall) q.segs) -. 1.6)
     < 1e-9);
  (* Percentile rule. *)
  let xs n = List.init n Float.of_int in
  expect "p90 withheld with 9 samples beyond it (n = 99)" (Calib.percentile 0.9 (xs 99) = None);
  expect "p90 reported with 10 samples beyond it (n = 100)"
    (Calib.percentile 0.9 (xs 100) = Some 89.0);
  expect "min_samples 0.9 = 100" (Calib.min_samples 0.9 = 100);
  expect "op_ms_p90 absent from a 99-op phase"
    (let p = phase_at 1.0 in
     let p =
       { p with segs = Array.sub p.segs 0 99; ok = Array.make 99 true;
         keys = Array.sub p.keys 0 99; instrs = Array.sub p.instrs 0 99; attempted = 99 }
     in
     not
       (List.exists (fun m -> m.name = "op_ms_p90")
          (end_to_end ~setups:[ 1.0 ] ~phase:p ~tflops:1.0 ~peak_mb:1.0)));
  (* Spread as Python's statistics.quantiles(n=4) computes it. *)
  expect "spread of 1..10 is 1.0"
    (Float.abs (Calib.spread (List.init 10 (fun i -> Float.of_int (i + 1))) -. 1.0) < 1e-12);
  if !failures > 0 then exit 1

(* ------------------------------- CLI ------------------------------- *)

let () =
  let workload = ref "" and seed = ref (-1) and seconds = ref 0.0 and trace = ref (-1) in
  let ref_ms = ref 0.0 and selftest = ref false in
  let specs =
    [ ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S length of the timed phase");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) run");
      ("--calib-ref-ms", Arg.Set_float ref_ms, "MS calibration constant");
      ("--self-test", Arg.Set selftest, " run the benchmark's own tests") ]
  in
  let usage = "perfbench.exe --workload W --seed N --seconds S --trace 0|1 --calib-ref-ms K" in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  if !selftest then self_test ()
  else
    match List.find_opt (fun (w : workload) -> w.name = !workload) workloads with
    | None ->
      Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
        (String.concat ", " (List.map (fun (w : workload) -> w.name) workloads));
      exit 2
    | Some _ when !seed < 0 || !seconds <= 0.0 || (!trace <> 0 && !trace <> 1) || !ref_ms <= 0.0 ->
      prerr_endline ("perfbench: missing or invalid arguments\n" ^ usage);
      exit 2
    | Some w -> run ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) ~ref_ms:!ref_ms
