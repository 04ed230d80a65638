(** Kernel launch modelling: full functional grids for verification,
    and wave-extrapolated timing for paper-scale shapes.

    Functional runs simulate every CTA (or, for persistent kernels, one
    resident CTA per simulated SM draining a shared work queue), so
    stores land in real buffers and outputs can be checked against the
    reference interpreter.

    Timing runs at paper scale (e.g. 4096 CTAs for an 8192x8192 GEMM)
    simulate one SM's share of the work and extrapolate: persistent
    kernels process [ceil(tiles / num_sms)] queue items in one resident
    CTA; non-persistent launches cost
    [launch_overhead + waves * (cta_cycles + cta_launch)] where a wave
    is [num_sms] CTAs. *)

open Tawa_machine

type timing = {
  cycles : float;
  seconds : float;
  tflops : float;
  tc_utilization : float; (* tensor-core busy fraction of total time *)
  stats : Sim.stats;
  profile : Sim.profile option;
      (* stall/channel attribution of the simulated representative CTA;
         [None] for aggregated launches (grouped, external baselines)
         where no single CTA is representative *)
}

let queue_of_list tiles =
  let remaining = ref tiles in
  fun () ->
    match !remaining with
    | [] -> -1
    | t :: rest ->
      remaining := rest;
      t

let no_queue () = -1

(** The independent work units of one launch, as thunks: one per CTA
    for a non-persistent grid (a fresh decoded context per unit —
    private SMEM, mbarriers, register files — writing a disjoint output
    tile of the shared parameter buffers), or a single unit draining
    the whole work queue for a persistent program. The caller owns the
    fan-out: {!run_grid_functional} pool-maps one launch's units, while
    the task-graph scheduler concatenates the units of every kernel in
    a wave and runs them through one shared pool dispatch — the
    re-entrant handoff that lets independent kernels overlap instead of
    pool-draining one kernel at a time. Units are safe to run
    concurrently with each other but each thunk must run at most
    once. *)
let cta_units ~(prepared : Engine.prepared) ~(program : Isa.program)
    ~(params : Sim.rt list) ~(grid : int * int * int) :
    (unit -> Sim.outcome) array =
  let gx, gy, gz = grid in
  let num_programs = [| gx; gy; gz |] in
  let total = gx * gy * gz in
  if program.Isa.persistent then
    [|
      (fun () ->
        let pop = queue_of_list (List.init total Fun.id) in
        Engine.run_prepared prepared ~params ~num_programs ~pop_global:pop ());
    |]
  else
    Array.init total (fun i ->
        let x = i mod gx in
        let rest = i / gx in
        let pid = [| x; rest mod gy; rest / gy |] in
        fun () ->
          Engine.run_prepared prepared ~params ~num_programs ~pid
            ~pop_global:no_queue ())

(** Run every program instance of [grid] functionally; mutates the
    buffers bound to pointer params. Returns total simulated cycles of
    the slowest path (not meaningful as end-to-end time — use
    {!estimate} for that). *)
let run_grid_functional ~(cfg : Config.t) (program : Isa.program) ~(params : Sim.rt list)
    ~(grid : int * int * int) : float =
  let cfg = { cfg with Config.mode = Config.Functional } in
  (* Decoding happens once per launch; every CTA of the grid reuses the
     prepared program. *)
  let prepared = Engine.prepare ~cfg program in
  (* The reduction is a [max] over per-CTA cycles (associative,
     commutative), so the result is bit-identical for any domain
     count; [Sim_error] deadlocks in any CTA propagate out of the
     pool. Persistent programs expose a single unit, which the pool
     degrades to a plain sequential call. *)
  Tawa_pool.Pool.max_float
    (fun unit_ -> (unit_ ()).Sim.cycles)
    (cta_units ~prepared ~program ~params ~grid)

(** The CTA {!estimate} simulates for [grid]: the [rep_pid] tile of a
    non-persistent launch, or, for a persistent program, one resident
    CTA draining one SM's share of the work queue. Returns its
    [num_programs], its program id, and a builder for its work queue
    (queues are stateful: every run needs a fresh one). *)
let representative_cta ?(rep_pid = [| 0; 0; 0 |]) ~(cfg : Config.t)
    (program : Isa.program) ~(grid : int * int * int) =
  let gx, gy, gz = grid in
  let total = gx * gy * gz in
  let num_programs = [| gx; gy; gz |] in
  if program.Isa.persistent then
    let sms = cfg.Config.num_sms in
    let tiles = List.init ((total + sms - 1) / sms) (fun i -> i * sms mod total) in
    (num_programs, [| 0; 0; 0 |], fun () -> queue_of_list tiles)
  else (num_programs, rep_pid, fun () -> no_queue)

(** Timing estimate for a [grid] launch at scale of an already decoded
    program, under the config it was decoded for. [flops] is the useful
    arithmetic of the whole launch (for TFLOPS). [rep_pid] selects the
    representative tile simulated for non-persistent launches. The
    simulation runs in [cfg.mode]: a [Functional] config simulates the
    payload too (params must then bind real buffers) and yields
    identical cycles. *)
let estimate_prepared ?rep_pid (prepared : Engine.prepared) ~(params : Sim.rt list)
    ~(grid : int * int * int) ~(flops : float) : timing =
  let cfg = prepared.Decode.d_cfg and program = prepared.Decode.d_program in
  let gx, gy, gz = grid in
  let total = gx * gy * gz in
  let num_programs, pid, queue = representative_cta ?rep_pid ~cfg program ~grid in
  let o =
    Engine.run_prepared prepared ~params ~num_programs ~pid ~pop_global:(queue ()) ()
  in
  let cycles, tc_utilization =
    if program.Isa.persistent then
      (* One resident CTA per SM, which drained one SM's share. *)
      let cycles = cfg.Config.launch_overhead_cycles +. o.Sim.cycles in
      (cycles, o.Sim.stats.Sim.tc_busy /. cycles)
    else
      let waves = (total + cfg.Config.num_sms - 1) / cfg.Config.num_sms in
      let cycles =
        cfg.Config.launch_overhead_cycles
        +. Float.of_int waves
           *. ((o.Sim.cycles *. cfg.Config.wave_jitter) +. cfg.Config.cta_launch_cycles)
      in
      (* Per-SM utilization: the simulated CTA's tensor-core busy time
         over its wave slot (stats cover one CTA, cycles cover the whole
         launch). *)
      (cycles, o.Sim.stats.Sim.tc_busy /. (o.Sim.cycles +. cfg.Config.cta_launch_cycles))
  in
  let seconds = Config.cycles_to_seconds cfg cycles in
  { cycles; seconds; tflops = Config.tflops cfg ~flops ~cycles; tc_utilization;
    stats = o.Sim.stats; profile = Some o.Sim.profile }

(** {!estimate_prepared} on [program] decoded for [cfg] through the
    shared decode cache. *)
let estimate ?rep_pid ~(cfg : Config.t) (program : Isa.program)
    ~(params : Sim.rt list) ~(grid : int * int * int) ~(flops : float) : timing =
  estimate_prepared ?rep_pid (Engine.prepare ~cfg program) ~params ~grid ~flops

(** Heterogeneous persistent launch (grouped GEMM, Fig. 9): work items
    carry their own parameter bindings; one resident CTA per SM pops
    items and re-reads per-item scalars. Modelled by simulating each
    item's inner program once per assignment and summing one SM's
    share serially — valid because grouped work items are independent
    and the queue serializes them on an SM. Programs must be compiled
    WITHOUT the per-kernel persistent wrapper: the grouped launcher
    itself provides the persistence (queue pop per tile).

    Like {!estimate}, it simulates in [cfg.mode]; under a [Functional]
    config it computes the payloads too, with the identical unit
    fan-out and cycles ([modes.grouped] pins the equality). *)
let estimate_grouped ~(cfg : Config.t)
    (items : (Isa.program * Sim.rt list * (int * int * int) * float) list) : timing =
  List.iter
    (fun ((p : Isa.program), _, _, _) ->
      if p.Isa.persistent then
        invalid_arg
          "Launch.estimate_grouped: pass non-persistent programs (the grouped launcher \
           is the persistence)")
    items;
  (* Expand items to per-tile work units (prepared program, params).
     Preparing per item (not per unit) decodes each distinct program
     once before the fan-out. *)
  let units =
    List.concat_map
      (fun (program, params, (gx, gy, gz), _flops) ->
        let prepared = Engine.prepare ~cfg program in
        List.concat_map
          (fun z ->
            List.concat_map
              (fun y -> List.map (fun x -> (prepared, params, [| x; y; z |], (gx, gy, gz))) (List.init gx Fun.id))
              (List.init gy Fun.id))
          (List.init gz Fun.id))
      items
  in
  let flops = List.fold_left (fun acc (_, _, _, f) -> acc +. f) 0.0 items in
  (* One SM's share: every num_sms-th unit. *)
  let mine = List.filteri (fun i _ -> i mod cfg.Config.num_sms = 0) units in
  let agg = ref 0.0 in
  let stats =
    { Sim.tc_busy = 0.0; tma_busy = 0.0; tma_bytes = 0.0; wgmma_count = 0; tma_count = 0;
      steps = 0 }
  in
  (* Each work unit of the SM's share is an independent simulation;
     run them on the domain pool, then accumulate sequentially in
     queue order so the float sums are bit-identical to the serial
     engine for any domain count. *)
  let run_unit (prepared, params, pid, (gx, gy, gz)) =
    Engine.run_prepared prepared ~params ~num_programs:[| gx; gy; gz |] ~pid
      ~pop_global:no_queue ()
  in
  let outcomes = Tawa_pool.Pool.map_list run_unit mine in
  List.iter
    (fun (o : Sim.outcome) ->
      agg := !agg +. o.Sim.cycles;
      stats.Sim.tc_busy <- stats.Sim.tc_busy +. o.Sim.stats.Sim.tc_busy;
      stats.Sim.tma_busy <- stats.Sim.tma_busy +. o.Sim.stats.Sim.tma_busy)
    outcomes;
  (* Persistent execution avoids per-item launches; only queue pops. *)
  let cycles =
    cfg.Config.launch_overhead_cycles
    +. !agg
    +. (Float.of_int (List.length mine) *. cfg.Config.workq_pop_cycles)
  in
  {
    cycles;
    seconds = Config.cycles_to_seconds cfg cycles;
    tflops = Config.tflops cfg ~flops ~cycles;
    tc_utilization = stats.Sim.tc_busy /. cycles;
    stats;
    profile = None;
  }
