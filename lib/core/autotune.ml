(** Configuration search over the Tawa hyperparameters (ROADMAP item 2).
    The paper selects aref depth [D], MMA pipeline depth [P], tile
    shape, and warp-group cooperation manually (§V-A, "the size of the
    aref and the depth of the MMA pipeline are selected manually to
    maximize performance"); this module automates the sweep:

    - {b declarative spaces} — per workload family ({!family}), the
      axes (tile shapes, D, P, cooperative consumer warp groups,
      persistence, coarse T/C/U split, lowering strategy) are data
      ({!axes}), expanded in a fixed order so the search is
      deterministic by construction;
    - {b static pruning} — every candidate is compiled once and gated
      on {!Tawa_analysis.Statcheck.occupancy} before any simulation.
      The static model is conservative (it counts every register tile
      as live), so when it rejects an entire space — attention at
      realistic block sizes — the search falls back to measuring all
      candidates and records the fallback instead of failing;
    - {b pool-parallel measurement} — survivors run in
      [Config.mode = Timing] fanned over the {!Tawa_pool.Pool} domain
      pool (order-preserving, so the winner is independent of the
      domain count), each decoded privately for its one run;
    - {b persistence} — best configs are stored in a
      {!Tawa_machine.Tunestore} keyed by (shape bucket x kernel
      fingerprint), so a warm restart re-serves tuned configs with
      zero re-measurement.

    The legacy entry points ({!gemm_candidates}, {!tune_gemm},
    {!dp_grid}) are kept verbatim for the bench figures
    (Fig. 11) and the baselines table; they sweep the legacy
    {!Resources.check_gemm}-feasible region. *)

open Tawa_tensor
open Tawa_frontend
open Tawa_machine
open Tawa_gpusim

type candidate = {
  tiles : Kernels.tile_config;
  aref_depth : int;
  mma_depth : int;
  coop : int;
  persistent : bool;
  coarse : bool;              (* coarse-grained T/C/U pipeline (§III-D.2) *)
  strategy : Flow.strategy;   (* lowering strategy; baselines ignore D/P *)
}

type measurement = { candidate : candidate; tflops : float; cycles : float }

(* ------------------------- workload families ---------------------- *)

type family =
  | Gemm of Workloads.gemm_shape
  | Attention of Workloads.mha_shape

let family_tag = function Gemm _ -> "gemm" | Attention _ -> "mha"

let kernel_of (family : family) (c : candidate) : Tawa_ir.Kernel.t =
  match family with
  | Gemm s -> Kernels.gemm ~tiles:c.tiles ~dtype:s.Workloads.dtype ()
  | Attention s ->
    Kernels.attention ~block_m:c.tiles.Kernels.block_m
      ~block_n:c.tiles.Kernels.block_n ~head_dim:s.Workloads.head_dim
      ~causal:s.Workloads.causal ~dtype:s.Workloads.mha_dtype ()

let options_of (c : candidate) : Flow.options =
  {
    Flow.aref_depth = c.aref_depth;
    mma_depth = c.mma_depth;
    num_consumer_wgs = c.coop;
    persistent = c.persistent;
    use_coarse = c.coarse;
    strategy = c.strategy;
  }

(* --------------------------- search spaces ------------------------ *)

(** The declarative axes of one family's search space. [ax_tiles]
    pairs each tile shape with its cooperative warp-group choices
    (§IV-A: wide tiles want more consumer WGs to spread the
    accumulator); [ax_mma_depths] is filtered to P <= D — P > D
    deadlocks on slot reuse (§III-D.1), a protocol constraint the
    occupancy model does not see. [ax_sw_stages] adds the Ampere
    software-pipelined baseline at the first tile shape, so the search
    can conclude that warp specialization is (or is not) worth it. *)
type axes = {
  ax_tiles : (Kernels.tile_config * int list) list;
  ax_depths : int list;
  ax_mma_depths : int list;
  ax_persistent : bool list;
  ax_coarse : bool list;
  ax_sw_stages : int list;
}

let tile bm bn bk = { Kernels.block_m = bm; block_n = bn; block_k = bk }

let gemm_axes : axes =
  {
    ax_tiles =
      [ (tile 64 64 64, [ 1 ]);
        (tile 128 128 64, [ 1; 2; 4 ]);
        (tile 128 256 64, [ 1; 2 ]);
        (tile 256 128 64, [ 2 ]) ];
    ax_depths = [ 1; 2; 3; 4 ];
    ax_mma_depths = [ 1; 2; 3 ];
    ax_persistent = [ false; true ];
    ax_coarse = [ false ];
    ax_sw_stages = [ 2; 3 ];
  }

let attention_axes ~(head_dim : int) : axes =
  {
    ax_tiles =
      [ (tile 64 64 head_dim, [ 1 ]);
        (tile 64 128 head_dim, [ 1 ]);
        (tile 128 64 head_dim, [ 1 ]);
        (tile 128 128 head_dim, [ 1 ]) ];
    ax_depths = [ 1; 2; 3 ];
    ax_mma_depths = [ 1; 2 ];
    ax_persistent = [ false ];
    ax_coarse = [ false; true ];
    ax_sw_stages = [];
  }

let axes_of = function
  | Gemm _ -> gemm_axes
  | Attention s -> attention_axes ~head_dim:s.Workloads.head_dim

(** Expand [axes] into the candidate list, in a fixed nested order
    (tiles, coop, D, P, persistent, coarse; then the software-pipelined
    baselines). The order is part of the contract: ties in the
    measurement fold resolve toward the earlier candidate, which makes
    the search reproducible. *)
let expand (axes : axes) : candidate list =
  let ws =
    List.concat_map
      (fun (tiles, coops) ->
        List.concat_map
          (fun coop ->
            List.concat_map
              (fun aref_depth ->
                List.concat_map
                  (fun mma_depth ->
                    if mma_depth > aref_depth then []
                    else
                      List.concat_map
                        (fun persistent ->
                          List.map
                            (fun coarse ->
                              { tiles; aref_depth; mma_depth; coop; persistent;
                                coarse; strategy = Flow.Warp_specialized })
                            axes.ax_coarse)
                        axes.ax_persistent)
                  axes.ax_mma_depths)
              axes.ax_depths)
          coops)
      axes.ax_tiles
  in
  let sw =
    match axes.ax_tiles with
    | [] -> []
    | (tiles, _) :: _ ->
      List.map
        (fun stages ->
          { tiles; aref_depth = stages; mma_depth = 1; coop = 1;
            persistent = false; coarse = false;
            strategy = Flow.Sw_pipelined stages })
        axes.ax_sw_stages
  in
  ws @ sw

let space (family : family) : candidate list = expand (axes_of family)

(* ------------------------- prune + measure ------------------------ *)

(** Compile [c] and ask the static occupancy model for a verdict.
    [Some reason] means the candidate is statically infeasible under
    [limits] and need not be simulated. *)
let prune_reason ?limits (family : family) (c : candidate) : string option =
  let compiled = Flow.compile ~options:(options_of c) (kernel_of family c) in
  match Tawa_analysis.Statcheck.occupancy ?limits compiled.Flow.transformed with
  | Resources.Feasible _ -> None
  | Resources.Infeasible reason -> Some reason

(* The launch [family]'s candidate [c] is timed on: the representative
   CTA, grid, params and the whole launch's flops. Causal attention
   simulates the median-work tile as the representative CTA. *)
let launch_of (family : family) (c : candidate) =
  match family with
  | Gemm s ->
    let grid, params = Workloads.gemm_launch s ~tiles:c.tiles in
    ([| 0; 0; 0 |], grid, params, Workloads.gemm_flops s)
  | Attention s ->
    let bm = c.tiles.Kernels.block_m in
    let grid, params = Workloads.mha_launch s ~block_m:bm in
    let mid = if s.Workloads.causal then max 0 ((s.Workloads.len / bm / 2) - 1) else 0 in
    ([| mid; 0; 0 |], grid, params, Workloads.mha_flops s)

(* Compile [c], decode its program with [prepare], and time the launch. *)
let measure_with prepare (family : family) (c : candidate) : measurement =
  let compiled = Flow.compile ~options:(options_of c) (kernel_of family c) in
  let rep_pid, grid, params, flops = launch_of family c in
  let t =
    Launch.estimate_prepared ~rep_pid (prepare compiled.Flow.program) ~params
      ~grid ~flops
  in
  { candidate = c; tflops = t.Launch.tflops; cycles = t.Launch.cycles }

(** Measure one candidate with the simulator under [cfg] (the caller
    chooses the mode; {!search} forces timing), decoding through the
    shared decode cache so repeated measurements decode once. *)
let measure ?(cfg = Config.h100) (family : family) (c : candidate) : measurement =
  measure_with (Engine.prepare ~cfg) family c

(* --------------------------- expert configs ----------------------- *)

(** The hand schedule an engineer would pick from the paper's guidance
    without running a search: for GEMM, the §IV-A/§IV-B cooperative
    persistent schedule at the largest statically-feasible tile
    (128x128, two consumer WGs, D=3, P=2); for attention, the Fig. 10
    configuration (128x128, D=2, coarse T/C/U pipeline). [search]
    results are reported against this baseline. *)
let expert (family : family) : candidate =
  match family with
  | Gemm _ ->
    { tiles = tile 128 128 64; aref_depth = 3; mma_depth = 2; coop = 2;
      persistent = true; coarse = false; strategy = Flow.Warp_specialized }
  | Attention s ->
    { tiles = tile 128 128 s.Workloads.head_dim; aref_depth = 2; mma_depth = 1;
      coop = 1; persistent = false; coarse = true;
      strategy = Flow.Warp_specialized }

(* ----------------------- store keys and codec --------------------- *)

let pow2_bucket n =
  if n <= 1 then 1
  else begin
    let b = ref 1 in
    while !b < n do
      b := !b * 2
    done;
    !b
  end

(** Shape bucket: shapes are rounded up to powers of two, so nearby
    problem sizes share a tuned config (the per-candidate rankings are
    stable within a bucket; re-tuning per exact shape would re-measure
    the same winner). *)
let shape_bucket = function
  | Gemm s ->
    Printf.sprintf "gemm:%s:%dx%dx%d"
      (Dtype.to_string s.Workloads.dtype)
      (pow2_bucket s.Workloads.m) (pow2_bucket s.Workloads.n)
      (pow2_bucket s.Workloads.k)
  | Attention s ->
    Printf.sprintf "mha:%s:b%d:h%d:l%d:hd%d:%s"
      (Dtype.to_string s.Workloads.mha_dtype)
      (pow2_bucket s.Workloads.batch)
      (pow2_bucket s.Workloads.heads)
      (pow2_bucket s.Workloads.len) s.Workloads.head_dim
      (if s.Workloads.causal then "causal" else "full")

(* The family's template kernel at default tiles: its fingerprint ties
   the store entry to the kernel *source*, so a frontend change that
   alters the IR invalidates stored configs for the family. *)
let template_kernel = function
  | Gemm s -> Kernels.gemm ~dtype:s.Workloads.dtype ()
  | Attention s ->
    Kernels.attention ~head_dim:s.Workloads.head_dim ~causal:s.Workloads.causal
      ~dtype:s.Workloads.mha_dtype ()

(** The {!Tawa_machine.Tunestore} key of a family: shape bucket x
    kernel fingerprint. *)
let store_key (family : family) : string =
  Printf.sprintf "%s|%s" (shape_bucket family)
    (Progcache.kernel_fingerprint (template_kernel family))

let strategy_code = Flow.strategy_key

let strategy_of_code s : Flow.strategy option =
  match s with
  | "ws" -> Some Flow.Warp_specialized
  | "sync" -> Some Flow.Sync_tma
  | "naive" -> Some Flow.Naive
  | _ ->
    if String.length s > 2 && String.sub s 0 2 = "sw" then
      match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
      | Some stages when stages >= 1 -> Some (Flow.Sw_pipelined stages)
      | _ -> None
    else None

let encode_measurement (m : measurement) : string =
  let c = m.candidate in
  Printf.sprintf "%s %d %d %d %d %d %d %d %d|%.17g|%.17g"
    (strategy_code c.strategy) c.tiles.Kernels.block_m c.tiles.Kernels.block_n
    c.tiles.Kernels.block_k c.aref_depth c.mma_depth c.coop
    (if c.persistent then 1 else 0)
    (if c.coarse then 1 else 0)
    m.tflops m.cycles

let decode_measurement (s : string) : measurement option =
  match String.split_on_char '|' s with
  | [ cand; tf; cy ] -> (
    match
      ( String.split_on_char ' ' cand,
        float_of_string_opt tf,
        float_of_string_opt cy )
    with
    | [ st; bm; bn; bk; d; p; c; per; coa ], Some tflops, Some cycles -> (
      match
        ( strategy_of_code st,
          int_of_string_opt bm, int_of_string_opt bn, int_of_string_opt bk,
          int_of_string_opt d, int_of_string_opt p, int_of_string_opt c,
          int_of_string_opt per, int_of_string_opt coa )
      with
      | ( Some strategy, Some bm, Some bn, Some bk, Some d, Some p, Some c,
          Some per, Some coa ) ->
        Some
          {
            candidate =
              { tiles = tile bm bn bk; aref_depth = d; mma_depth = p; coop = c;
                persistent = per <> 0; coarse = coa <> 0; strategy };
            tflops;
            cycles;
          }
      | _ -> None)
    | _ -> None)
  | _ -> None

(** The tuned winner a warm store holds for [family], or [None] on a
    cold store (or a corrupt entry — same recovery as {!search}). This
    is the read-only half of the store protocol: the task-graph layer
    uses it at instantiate time to auto-configure nodes without running
    a search. *)
let stored_best ~(store : Tunestore.t) (family : family) : measurement option =
  match Tunestore.find store ~key:(store_key family) with
  | None -> None
  | Some line -> decode_measurement line

(* ------------------------------ search ---------------------------- *)

type search_stats = {
  total : int;       (* candidates enumerated *)
  pruned : int;      (* rejected statically, never simulated *)
  measured : int;    (* simulated in timing mode *)
  from_store : bool; (* served from the tunestore, zero measurements *)
  prune_fallback : bool;
      (* the static model rejected every candidate; all were measured *)
  wall_seconds : float;
}

type result = {
  best : measurement;
  stats : search_stats;
  prune_reasons : (string * int) list; (* static reason -> candidate count *)
}

let count_reasons reasons =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
      Hashtbl.replace tbl r (1 + Option.value ~default:0 (Hashtbl.find_opt tbl r)))
    reasons;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(** Search [family]'s space: statically prune under [limits], measure
    survivors in timing mode over the domain pool, return the best
    (strict improvement in candidate order, so the result is
    deterministic). With [?store], a prior result for the same
    (shape bucket x kernel fingerprint) key is served directly —
    zero measurements — and a fresh result is persisted. *)
let search ?(cfg = Config.h100) ?limits ?store (family : family) : result =
  let t0 = Tawa_obs.Registry.now () in
  let key = store_key family in
  let stored =
    match store with
    | None -> None
    | Some st -> (
      match Tunestore.find st ~key with
      | None ->
        Tawa_obs.Registry.incr "autotune.store_misses";
        None
      | Some payload -> (
        match decode_measurement payload with
        | Some m ->
          Tawa_obs.Registry.incr "autotune.store_hits";
          Some m
        | None ->
          (* Corrupt entry: treat as a miss and overwrite below. *)
          Tawa_obs.Registry.incr "autotune.store_misses";
          None))
  in
  match stored with
  | Some best ->
    {
      best;
      stats =
        { total = 0; pruned = 0; measured = 0; from_store = true;
          prune_fallback = false;
          wall_seconds = Tawa_obs.Registry.now () -. t0 };
      prune_reasons = [];
    }
  | None ->
    let cands = space family in
    let total = List.length cands in
    Tawa_obs.Registry.incr ~by:total "autotune.candidates";
    let verdicts =
      List.map (fun c -> (c, prune_reason ?limits family c)) cands
    in
    (* Every candidate is compiled, and measuring recompiles through
       the compile cache: drop the pass prefixes the candidates shared
       instead of keeping their kernels alive next to the programs. *)
    Tawa_passes.Manager.clear_cache ();
    let feasible =
      List.filter_map
        (fun (c, v) -> match v with None -> Some c | Some _ -> None)
        verdicts
    in
    let prune_reasons =
      count_reasons
        (List.filter_map (fun (_, v) -> v) verdicts)
    in
    let prune_fallback = feasible = [] in
    let to_measure = if prune_fallback then cands else feasible in
    let pruned = if prune_fallback then 0 else total - List.length feasible in
    Tawa_obs.Registry.incr ~by:pruned "autotune.pruned";
    (* Each survivor is a distinct program, decoded once and run once.
       Through [Engine.prepare] it would only fill the shared decode
       cache with entries no later lookup hits, so it decodes here. *)
    let tcfg = { cfg with Config.mode = Config.Timing } in
    let ms =
      Tawa_pool.Pool.map_list (measure_with (Decode.decode ~cfg:tcfg) family) to_measure
    in
    Tawa_obs.Registry.incr ~by:(List.length ms) "autotune.measured";
    let best =
      match ms with
      | [] -> invalid_arg "Autotune.search: empty candidate space"
      | hd :: tl ->
        List.fold_left
          (fun acc m -> if m.tflops > acc.tflops then m else acc)
          hd tl
    in
    (match store with
    | Some st -> Tunestore.put st ~key (encode_measurement best)
    | None -> ());
    {
      best;
      stats =
        { total; pruned; measured = List.length ms; from_store = false;
          prune_fallback; wall_seconds = Tawa_obs.Registry.now () -. t0 };
      prune_reasons;
    }

(** Human-readable candidate summary for tables. *)
let candidate_to_string (c : candidate) =
  let base =
    Printf.sprintf "%dx%dx%d" c.tiles.Kernels.block_m c.tiles.Kernels.block_n
      c.tiles.Kernels.block_k
  in
  match c.strategy with
  | Flow.Sw_pipelined stages ->
    Printf.sprintf "%s sw-pipelined stages=%d" base stages
  | Flow.Sync_tma -> base ^ " sync-tma"
  | Flow.Naive -> base ^ " naive"
  | Flow.Warp_specialized ->
    Printf.sprintf "%s D=%d P=%d coop=%d%s%s" base c.aref_depth c.mma_depth
      c.coop
      (if c.persistent then " persistent" else "")
      (if c.coarse then " coarse" else "")

(* ----------------------- legacy GEMM entry points ----------------- *)

(* The pre-PR8 sweep over the [Resources.check_gemm]-feasible region.
   Kept verbatim: Fig. 11 (dp_grid), the baselines table
   (Frameworks.Tawa), and the example programs pin its behavior. *)

let gemm_candidates ?(persistent_choices = [ false; true ]) ~(dtype : Dtype.t) () =
  let tile_choices =
    [ ({ Kernels.block_m = 128; block_n = 128; block_k = 64 }, 1);
      ({ Kernels.block_m = 128; block_n = 256; block_k = 64 }, 2) ]
  in
  List.concat_map
    (fun (tiles, coop) ->
      List.concat_map
        (fun aref_depth ->
          List.concat_map
            (fun mma_depth ->
              List.filter_map
                (fun persistent ->
                  match
                    Resources.check_gemm ~block_m:tiles.Kernels.block_m
                      ~block_n:tiles.Kernels.block_n ~block_k:tiles.Kernels.block_k
                      ~aref_depth ~mma_depth ~coop ~dtype
                  with
                  | Resources.Feasible _ ->
                    Some
                      { tiles; aref_depth; mma_depth; coop; persistent;
                        coarse = false; strategy = Flow.Warp_specialized }
                  | Resources.Infeasible _ -> None)
                persistent_choices)
            [ 1; 2; 3 ])
        [ 1; 2; 3; 4 ])
    tile_choices

(** Best feasible configuration for a GEMM shape (legacy sweep). *)
let tune_gemm ?(cfg = Config.h100) (shape : Workloads.gemm_shape) : measurement =
  let cands = gemm_candidates ~dtype:shape.Workloads.dtype () in
  match List.map (measure ~cfg (Gemm shape)) cands with
  | [] -> invalid_arg "Autotune.tune_gemm: no feasible candidate"
  | ms -> List.fold_left (fun best m -> if m.tflops > best.tflops then m else best)
            (List.hd ms) ms

(** The full (D, P) grid at a fixed tile shape — the data of Fig. 11.
    Infeasible points are [None]. *)
let dp_grid ?(cfg = Config.h100) ~(tiles : Kernels.tile_config) ~coop ~persistent
    (shape : Workloads.gemm_shape) ~max_d ~max_p =
  List.map
    (fun d ->
      List.map
        (fun p ->
          match
            Resources.check_gemm ~block_m:tiles.Kernels.block_m
              ~block_n:tiles.Kernels.block_n ~block_k:tiles.Kernels.block_k ~aref_depth:d
              ~mma_depth:p ~coop ~dtype:shape.Workloads.dtype
          with
          | Resources.Infeasible _ -> None
          | Resources.Feasible _ ->
            Some
              (measure ~cfg (Gemm shape)
                 { tiles; aref_depth = d; mma_depth = p; coop; persistent;
                   coarse = false; strategy = Flow.Warp_specialized }))
        (List.init max_p (fun i -> i + 1)))
    (List.init max_d (fun i -> i + 1))
