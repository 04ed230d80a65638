(** Task-graph execution: wave-overlap scheduling and decode-once
    replay for multi-kernel workloads.

    A launch today is one kernel; the transformer-layer pipelines the
    paper motivates (QKV projections -> flash attention -> output GEMM)
    are *graphs* of kernels. This layer makes the graph the unit of
    execution:

    - {b Nodes} are prepared kernels: a frontend kernel + compile
      options + launch shape + parameter bindings ({!spec}).
    - {b Edges} are tensor dependencies inferred from each kernel's
      read/write sets ({!param_access}): which pointer parameters feed
      TMA loads, which feed TMA stores. Two nodes conflict when one
      writes a tensor the other reads (RAW) or writes (WAW), or writes
      a tensor an earlier node reads (WAR) — by physical tensor
      identity, in node insertion order, exactly the dependences a
      sequential stream would impose.
    - The {b wave scheduler} layers the DAG topologically: wave [w]
      holds every node whose producers all sit in waves [< w]. A wave's
      CTAs — from *all* its kernels — run through one shared domain
      pool dispatch ({!Tawa_pool.Pool.shared}), so independent kernels
      (the three QKV GEMMs) overlap instead of pool-draining one kernel
      at a time.
    - {!instantiate}/{!replay} split setup from execution,
      CUDA-graph-style: instantiate compiles ({!Tawa_core.Flow.compile},
      memoized), decodes ({!Tawa_gpusim.Engine.prepare}, memoized in
      [Progcache]), and consults the {!Tawa_machine.Tunestore} once per
      node; replay runs only CTAs. Iteration 2..N pays no
      fingerprinting, no cache-key digests, no spawns — only execution.

    {!run_serial} is the reference path — one launch per node, in
    program order, each paying full per-launch setup — against which
    replay is verified bit-identical ([outcomes_equal] in the test
    suite) and benchmarked. *)

open Tawa_ir
open Tawa_machine
open Tawa_gpusim
module Flow = Tawa_core.Flow
module Autotune = Tawa_core.Autotune
module Pool = Tawa_pool.Pool
module Registry = Tawa_obs.Registry
module Trace = Tawa_obs.Trace

(* --------------------------- node specs --------------------------- *)

type spec = {
  sp_name : string;
  sp_kernel : Kernel.t;
  sp_options : Flow.options;
  sp_params : Sim.rt list;
  sp_grid : int * int * int;
  sp_flops : float;
  sp_family : Autotune.family option;
      (* tunestore identity; [None] opts out of auto-configuration *)
}

(** Build a node spec. Persistent options are rejected: the wave
    scheduler owns cross-kernel scheduling, and a persistent kernel's
    private queue would hide its CTAs from the wave. *)
let node ?(options = Flow.default_options) ?(flops = 0.0) ?family ~name
    ~kernel ~params ~grid () : spec =
  if options.Flow.persistent then
    invalid_arg "Graph.node: persistent kernels cannot be graph nodes";
  {
    sp_name = name;
    sp_kernel = kernel;
    sp_options = options;
    sp_params = params;
    sp_grid = grid;
    sp_flops = flops;
    sp_family = family;
  }

(* ----------------------- read/write inference --------------------- *)

type access = { reads : int list; writes : int list }
(** Pointer-parameter indices, sorted ascending. *)

(* [Make_tensor_desc] ties a descriptor value to the pointer parameter
   it wraps; a [Tma_load] through a descriptor is a read of the
   parameter its definition ({!Tawa_ir.Graph.def}) wraps, a [Tma_store]
   a write. A pointer parameter that never flows through a descriptor
   we can track is conservatively both read and written — correctness
   (extra edges) over overlap. *)
let param_access (k : Kernel.t) : access =
  let param_idx : (int, int) Hashtbl.t = Hashtbl.create 8 in
  List.iteri (fun i v -> Hashtbl.replace param_idx (Value.id v) i) k.Kernel.params;
  let defs = Tawa_ir.Graph.build k.Kernel.body in
  let wrapped v =
    match Tawa_ir.Graph.def defs v with
    | Some { Op.opcode = Op.Make_tensor_desc; operands = ptr :: _; _ } ->
      Hashtbl.find_opt param_idx (Value.id ptr)
    | _ -> None
  in
  let classified : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let reads : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let writes : (int, unit) Hashtbl.t = Hashtbl.create 8 in
  let note tbl = function Some i -> Hashtbl.replace tbl i () | None -> () in
  Op.iter_region
    (fun op ->
      match (op.Op.opcode, op.Op.operands, op.Op.results) with
      | Op.Make_tensor_desc, _, res :: _ -> note classified (wrapped res)
      | Op.Tma_load, desc :: _, _ -> note reads (wrapped desc)
      | Op.Tma_store, desc :: _, _ -> note writes (wrapped desc)
      | _ -> ())
    k.Kernel.body;
  List.iteri
    (fun i v ->
      match Value.ty v with
      | Types.TPtr _ when not (Hashtbl.mem classified i) ->
        Hashtbl.replace reads i ();
        Hashtbl.replace writes i ()
      | _ -> ())
    k.Kernel.params;
  let sorted tbl = List.sort compare (Hashtbl.fold (fun i () acc -> i :: acc) tbl []) in
  { reads = sorted reads; writes = sorted writes }

(* ------------------------ dependency planner ----------------------- *)

type dep_kind = Raw | Waw | War

let dep_kind_to_string = function Raw -> "RAW" | Waw -> "WAW" | War -> "WAR"

(** Infer edges over abstract resource ids: element [i] of the input is
    node [i]'s (reads, writes) in program order. An edge [(i, j, k)]
    with [i < j] means node [j] must wait for node [i]. Pure — the
    QCheck property suite drives it with random programs. *)
let infer_edges (nodes : (int list * int list) array) :
    (int * int * dep_kind) list =
  let mem x xs = List.mem x xs in
  let inter a b = List.exists (fun x -> mem x b) a in
  let n = Array.length nodes in
  let edges = ref [] in
  for j = n - 1 downto 0 do
    for i = j - 1 downto 0 do
      let ri, wi = nodes.(i) in
      let rj, wj = nodes.(j) in
      (* Strongest reason wins in the label; any reason makes the edge. *)
      if inter wi rj then edges := (i, j, Raw) :: !edges
      else if inter wi wj then edges := (i, j, Waw) :: !edges
      else if inter ri wj then edges := (i, j, War) :: !edges
    done
  done;
  !edges

(** Kahn-style longest-path layering: a node's wave is one past its
    deepest producer. Edges must satisfy [src < dst] (program order),
    which makes the graph acyclic by construction. *)
let wave_order ~n (edges : (int * int * dep_kind) list) : int array =
  let wave = Array.make n 0 in
  List.iter
    (fun (i, j, _) -> if wave.(i) + 1 > wave.(j) then wave.(j) <- wave.(i) + 1)
    (List.sort (fun (_, a, _) (_, b, _) -> compare a b) edges);
  wave

(* ------------------------------ graphs ----------------------------- *)

type t = {
  specs : spec array;
  accesses : access array;
  edges : (int * int * dep_kind) list;
  wave_of : int array;
  waves : int array array; (* node indices per wave, ascending *)
}

let num_nodes t = Array.length t.specs
let num_waves t = Array.length t.waves

(* Tensor resources by physical identity: the same buffer bound to two
   nodes is the same resource, a [slice2] copy is not. *)
let resource_sets (specs : spec array) (accesses : access array) :
    (int list * int list) array =
  let known : Tawa_tensor.Tensor.t list ref = ref [] in
  let id_of (t : Tawa_tensor.Tensor.t) =
    let rec find i = function
      | [] ->
        known := !known @ [ t ];
        i
      | x :: _ when x == t -> i
      | _ :: rest -> find (i + 1) rest
    in
    find 0 !known
  in
  Array.map2
    (fun spec access ->
      let params = Array.of_list spec.sp_params in
      let tensors idxs =
        List.filter_map
          (fun i ->
            if i < Array.length params then
              match params.(i) with
              | Sim.Rtensor t -> Some (id_of t)
              | _ -> None
            else None)
          idxs
      in
      (tensors access.reads, tensors access.writes))
    specs accesses

(** Build a graph from specs in program order: infer read/write sets
    from each kernel's IR, bind them to the tensors in [sp_params],
    derive edges and the topological wave layering. *)
let build (specs : spec list) : t =
  let specs = Array.of_list specs in
  Array.iter
    (fun s ->
      let nparams = List.length s.sp_kernel.Kernel.params in
      if List.length s.sp_params <> nparams then
        invalid_arg
          (Printf.sprintf "Graph.build: node %s binds %d params, kernel %s has %d"
             s.sp_name (List.length s.sp_params) s.sp_kernel.Kernel.name nparams))
    specs;
  let accesses = Array.map (fun s -> param_access s.sp_kernel) specs in
  let edges = infer_edges (resource_sets specs accesses) in
  let n = Array.length specs in
  let wave_of = wave_order ~n edges in
  let nwaves = Array.fold_left (fun a w -> max a (w + 1)) 0 wave_of in
  let waves =
    Array.init (max nwaves 0) (fun w ->
        let members = ref [] in
        for i = n - 1 downto 0 do
          if wave_of.(i) = w then members := i :: !members
        done;
        Array.of_list !members)
  in
  { specs; accesses; edges; wave_of; waves }

let summary (t : t) : string =
  let ctas =
    Array.fold_left
      (fun acc s ->
        let x, y, z = s.sp_grid in
        acc + (x * y * z))
      0 t.specs
  in
  Printf.sprintf "%d nodes, %d edges, %d waves, %d CTAs" (num_nodes t)
    (List.length t.edges) (num_waves t) ctas

(* --------------------------- instantiate --------------------------- *)

type inode = {
  i_spec : spec;
  i_options : Flow.options; (* effective options, after the tunestore *)
  i_compiled : Flow.compiled;
  i_prepared : Engine.prepared;
  i_tuned : bool;
}

type instance = {
  graph : t;
  cfg : Config.t;
  nodes : inode array;
  mutable replays : int;
}

(* A warm store auto-configures the protocol depths (D, P) of
   warp-specialized nodes from the family's tuned winner. Tile shape,
   coop, and persistence stay the node's own: the stored candidate was
   tuned at its own tile grid, and grafting paper-scale tiles onto a
   node's fixed launch shape would change the grid, not just the
   schedule. *)
let tuned_options (store : Tunestore.t option) (spec : spec) :
    Flow.options * bool =
  match (store, spec.sp_family) with
  | None, _ | _, None -> (spec.sp_options, false)
  | Some store, Some family -> (
    match Autotune.stored_best ~store family with
    | None ->
      Registry.incr "graph.tunestore.misses";
      (spec.sp_options, false)
    | Some m ->
      Registry.incr "graph.tunestore.hits";
      let c = m.Autotune.candidate in
      if
        c.Autotune.strategy = Flow.Warp_specialized
        && spec.sp_options.Flow.strategy = Flow.Warp_specialized
      then
        ( {
            spec.sp_options with
            Flow.aref_depth = c.Autotune.aref_depth;
            mma_depth = min c.Autotune.mma_depth c.Autotune.aref_depth;
          },
          true )
      else (spec.sp_options, false))

(** Compile, decode, and (optionally) auto-tune every node once; warm
    the shared pool so replays never spawn. The instance replays under
    [cfg] as given — functional mode for verified outputs, timing mode
    for cycles-only sweeps (bit-identical cycles, pinned by the modes
    differential suite). *)
let instantiate ?(cfg = Config.functional_test) ?store (t : t) : instance =
  Registry.time "graph.instantiate" (fun () ->
      Pool.warm (Pool.shared ());
      let nodes =
        Array.map
          (fun spec ->
            let options, tuned = tuned_options store spec in
            let compiled = Flow.compile ~options spec.sp_kernel in
            let prepared = Engine.prepare ~cfg compiled.Flow.program in
            Registry.incr "graph.nodes.instantiated";
            {
              i_spec = spec;
              i_options = options;
              i_compiled = compiled;
              i_prepared = prepared;
              i_tuned = tuned;
            })
          t.specs
      in
      { graph = t; cfg; nodes; replays = 0 })

let node_options (inst : instance) i = inst.nodes.(i).i_options
let node_tuned (inst : instance) i = inst.nodes.(i).i_tuned

(* ------------------------------ results ---------------------------- *)

type node_result = {
  nr_node : int;
  nr_name : string;
  nr_ctas : int;
  nr_cycles : float; (* max over the node's CTAs (the launch's cycles) *)
  nr_cta_cycles : float array; (* per CTA, grid order *)
  nr_rep : Sim.outcome; (* representative CTA (grid origin) *)
}

type wave_result = {
  wr_wave : int;
  wr_nodes : int array;
  wr_ctas : int;
  wr_seconds : float; (* host wall-clock of the wave's pool dispatch *)
}

type run = {
  r_nodes : node_result array;
  r_waves : wave_result array;
  r_seconds : float; (* host wall-clock of the whole execution *)
}

let grid_size (x, y, z) = x * y * z

let node_result_of_outcomes (inst : instance) ni (outcomes : Sim.outcome array) =
  let spec = inst.nodes.(ni).i_spec in
  let cta_cycles = Array.map (fun (o : Sim.outcome) -> o.Sim.cycles) outcomes in
  {
    nr_node = ni;
    nr_name = spec.sp_name;
    nr_ctas = Array.length outcomes;
    nr_cycles = Array.fold_left Float.max 0.0 cta_cycles;
    nr_cta_cycles = cta_cycles;
    nr_rep = outcomes.(0);
  }

(* ------------------------------ replay ----------------------------- *)

(** Execute the instance, wave by wave: concatenate the CTA units of
    every node in the wave and run them through one shared pool
    dispatch. No compilation, no decoding, no cache lookups — those
    were paid at {!instantiate}. Buffers bound to written params are
    mutated (functional mode). Safe to call repeatedly; each call
    re-executes the same prepared work. *)
let replay (inst : instance) : run =
  Registry.time "graph.replay" (fun () ->
      let t0 = Registry.now () in
      let results = Array.make (Array.length inst.nodes) None in
      let waves =
        Array.mapi
          (fun w members ->
            let w0 = Registry.now () in
            let units =
              Array.concat
                (Array.to_list
                   (Array.map
                      (fun ni ->
                        let node = inst.nodes.(ni) in
                        Launch.cta_units ~prepared:node.i_prepared
                          ~program:node.i_compiled.Flow.program
                          ~params:node.i_spec.sp_params
                          ~grid:node.i_spec.sp_grid)
                      members))
            in
            (* One dispatch for the whole wave: CTAs of independent
               kernels interleave freely across the pool's workers. *)
            let outcomes = Pool.map (fun u -> u ()) units in
            let off = ref 0 in
            Array.iter
              (fun ni ->
                let n = grid_size inst.nodes.(ni).i_spec.sp_grid in
                results.(ni) <-
                  Some
                    (node_result_of_outcomes inst ni
                       (Array.sub outcomes !off n));
                off := !off + n)
              members;
            {
              wr_wave = w;
              wr_nodes = members;
              wr_ctas = Array.length units;
              wr_seconds = Registry.now () -. w0;
            })
          inst.graph.waves
      in
      inst.replays <- inst.replays + 1;
      Registry.incr "graph.replays";
      {
        r_nodes =
          Array.map
            (function
              | Some r -> r
              | None -> invalid_arg "Graph.replay: node missing from waves")
            results;
        r_waves = waves;
        r_seconds = Registry.now () -. t0;
      })

(* -------------------------- serial reference ----------------------- *)

(** The pre-graph execution path, for differentials and benchmarks:
    one launch per node in program order, each paying today's full
    per-launch cost — kernel fingerprinting through [Flow.compile]
    (cache hit), the config digest through [Engine.prepare] (cache
    hit), and a private pool dispatch per kernel. Semantically
    equivalent to {!replay} by construction: program order respects
    every inferred edge. *)
let run_serial (inst : instance) : run =
  Registry.time "graph.serial" (fun () ->
      let t0 = Registry.now () in
      let results =
        Array.mapi
          (fun ni (node : inode) ->
            let spec = node.i_spec in
            let compiled = Flow.compile ~options:node.i_options spec.sp_kernel in
            let prepared = Engine.prepare ~cfg:inst.cfg compiled.Flow.program in
            let units =
              Launch.cta_units ~prepared ~program:compiled.Flow.program
                ~params:spec.sp_params ~grid:spec.sp_grid
            in
            let outcomes = Pool.map (fun u -> u ()) units in
            node_result_of_outcomes inst ni outcomes)
          inst.nodes
      in
      (* Serialized launches: one "wave" per node. *)
      let waves =
        Array.mapi
          (fun i (r : node_result) ->
            { wr_wave = i; wr_nodes = [| r.nr_node |]; wr_ctas = r.nr_ctas;
              wr_seconds = 0.0 })
          results
      in
      { r_nodes = results; r_waves = waves; r_seconds = Registry.now () -. t0 })

(* -------------------------- overlap model -------------------------- *)

type wave_model = {
  wm_wave : int;
  wm_ctas : int;
  wm_sm_waves : int; (* ceil(ctas / num_sms) scheduling rounds *)
  wm_cycles : float;
  wm_occupancy : float; (* CTAs per SM slot over the wave's rounds *)
}

type model = {
  m_serial_cycles : float; (* one launch per node, no overlap *)
  m_graph_cycles : float; (* per-wave packing across kernels *)
  m_speedup : float;
  m_waves : wave_model array;
}

(* Cost of scheduling [cta_cycles] (in issue order) onto the machine's
   SMs: CTAs fill [num_sms]-wide rounds; a round costs its slowest
   CTA (jitter-scaled) plus the per-CTA launch cost — the same
   extrapolation {!Launch.estimate} applies to one kernel, extended to
   a mixed bag of CTAs. *)
let pack_cycles (cfg : Config.t) (cta_cycles : float array) : float * int =
  let n = Array.length cta_cycles in
  let sms = max 1 cfg.Config.num_sms in
  let rounds = (n + sms - 1) / sms in
  let total = ref 0.0 in
  for r = 0 to rounds - 1 do
    let worst = ref 0.0 in
    for i = r * sms to min n (r * sms + sms) - 1 do
      if cta_cycles.(i) > !worst then worst := cta_cycles.(i)
    done;
    total :=
      !total +. (!worst *. cfg.Config.wave_jitter) +. cfg.Config.cta_launch_cycles
  done;
  (!total, rounds)

(** Simulated end-to-end cycles of the two execution disciplines, from
    one measured {!run}: serialized launches pay a launch overhead per
    node and pack each kernel's CTAs alone; the wave scheduler pays one
    overhead per wave and packs all of a wave's CTAs together —
    overlapping independent kernels within SM rounds and merging their
    ragged final rounds. Deterministic in the run's cycles. *)
let overlap_model (inst : instance) (r : run) : model =
  let cfg = inst.cfg in
  let serial =
    Array.fold_left
      (fun acc (nr : node_result) ->
        let c, _ = pack_cycles cfg nr.nr_cta_cycles in
        acc +. cfg.Config.launch_overhead_cycles +. c)
      0.0 r.r_nodes
  in
  let waves =
    Array.map
      (fun (w : wave_result) ->
        let cta_cycles =
          Array.concat
            (Array.to_list
               (Array.map (fun ni -> r.r_nodes.(ni).nr_cta_cycles) w.wr_nodes))
        in
        let c, rounds = pack_cycles cfg cta_cycles in
        let sms = max 1 cfg.Config.num_sms in
        {
          wm_wave = w.wr_wave;
          wm_ctas = Array.length cta_cycles;
          wm_sm_waves = rounds;
          wm_cycles = cfg.Config.launch_overhead_cycles +. c;
          wm_occupancy =
            (if rounds = 0 then 0.0
             else
               Float.of_int (Array.length cta_cycles)
               /. Float.of_int (rounds * sms));
        })
      r.r_waves
  in
  let graph = Array.fold_left (fun acc w -> acc +. w.wm_cycles) 0.0 waves in
  {
    m_serial_cycles = serial;
    m_graph_cycles = graph;
    m_speedup = (if graph > 0.0 then serial /. graph else 1.0);
    m_waves = waves;
  }

(* ----------------------------- tracing ----------------------------- *)

(** Chrome-trace events for one replay on the model's simulated
    timeline: a "graph" lane of wave spans, plus one lane per node with
    its span placed at its wave's start. Cycles as microseconds, like
    the rest of the trace module ([timeUnit: cycles]). Each node span
    carries its representative CTA's dominant stall bucket and share in
    [args], so a glance at the graph lane says what bounds each
    kernel. *)
let top_stall (o : Sim.outcome) : string * float =
  let num = Tawa_obs.Stall.num in
  let buckets = Array.make num 0.0 in
  Array.iter
    (fun (w : Sim.wg_prof) ->
      Array.iteri (fun i c -> buckets.(i) <- buckets.(i) +. c) w.Sim.p_buckets)
    o.Sim.profile.Sim.wg_profs;
  let total = Array.fold_left ( +. ) 0.0 buckets in
  let top = ref 0 in
  Array.iteri (fun i c -> if c > buckets.(!top) then top := i) buckets;
  ( Tawa_obs.Stall.name_of_index !top,
    if total > 0.0 then buckets.(!top) /. total else 0.0 )

let trace_events (inst : instance) (r : run) : Trace.event list =
  let model = overlap_model inst r in
  let lanes =
    Trace.thread_name ~tid:0 "graph: waves"
    :: Array.to_list
         (Array.mapi
            (fun i (n : inode) ->
              Trace.thread_name ~tid:(i + 1)
                (Printf.sprintf "node: %s" n.i_spec.sp_name))
            inst.nodes)
  in
  let spans = ref [] in
  let t = ref 0.0 in
  Array.iter
    (fun (wm : wave_model) ->
      let w = r.r_waves.(wm.wm_wave) in
      spans :=
        Trace.complete ~cat:"graph" ~tid:0 ~ts:!t ~dur:wm.wm_cycles
          ~args:
            [ ("ctas", Tawa_obs.Json.Int wm.wm_ctas);
              ("sm_waves", Tawa_obs.Json.Int wm.wm_sm_waves) ]
          (Printf.sprintf "wave %d" wm.wm_wave)
        :: !spans;
      Array.iter
        (fun ni ->
          let nr = r.r_nodes.(ni) in
          let stall, share = top_stall nr.nr_rep in
          spans :=
            Trace.complete ~cat:"graph" ~tid:(ni + 1) ~ts:!t
              ~dur:(nr.nr_cycles *. inst.cfg.Config.wave_jitter)
              ~args:
                [ ("ctas", Tawa_obs.Json.Int nr.nr_ctas);
                  ("top_stall", Tawa_obs.Json.Str stall);
                  ("top_stall_share", Tawa_obs.Json.Float share) ]
              nr.nr_name
            :: !spans)
        w.wr_nodes;
      t := !t +. wm.wm_cycles)
    model.m_waves;
  lanes @ List.rev !spans
