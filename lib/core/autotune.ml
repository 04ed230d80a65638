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
    - {b static pruning} — every candidate is compiled once and its
      program gated on {!Tawa_machine.Resources.occupancy} before any
      simulation. Codegen never reuses a register, so the model counts
      every register tile the program writes; when it rejects an entire
      space — attention at realistic block sizes — the search falls
      back to measuring all candidates and records the fallback instead
      of failing;
    - {b pool-parallel measurement} — survivors run in
      [Config.mode = Timing] fanned over the {!Tawa_pool.Pool} domain
      pool (order-preserving, so the winner is independent of the
      domain count), each decoded privately for its one run;
    - {b persistence} — best configs are stored in a
      {!Tawa_machine.Tunestore} keyed by (shape bucket x kernel
      fingerprint), so a warm restart re-serves tuned configs with
      zero re-measurement.

    One function, {!time_with}, turns a candidate into a launch timing:
    {!measure}, {!search}, the paper's GEMM sweep ({!paper_gemm_axes},
    timed unpruned by {!tune_gemm} and {!dp_grid}; {!tune_gemm} stops
    the candidates that can no longer win, see {!fastest}) and every
    framework cell of the baselines table (a candidate timed under a
    cost-quirk config) go through it. *)

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

(** The candidate that compiles [tiles] with {!Flow.default_options}.
    Callers state only what differs:
    [{ (candidate tiles) with aref_depth = 3; coop = 2 }]. *)
let candidate tiles =
  let o = Flow.default_options in
  { tiles; aref_depth = o.Flow.aref_depth; mma_depth = o.Flow.mma_depth;
    coop = o.Flow.num_consumer_wgs; persistent = o.Flow.persistent;
    coarse = o.Flow.use_coarse; strategy = o.Flow.strategy }

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

(* Exactly what {!kernel_of} reads of [family] and [c]: attention
   takes its K extent from the head dimension, not the tile. *)
let kernel_key (family : family) (c : candidate) =
  let t = c.tiles in
  match family with
  | Gemm s ->
    Printf.sprintf "gemm:%s:%dx%dx%d" (Dtype.to_string s.Workloads.dtype) t.Kernels.block_m
      t.Kernels.block_n t.Kernels.block_k
  | Attention s ->
    Printf.sprintf "mha:%s:%dx%d:hd%d:%b" (Dtype.to_string s.Workloads.mha_dtype)
      t.Kernels.block_m t.Kernels.block_n s.Workloads.head_dim s.Workloads.causal

(** [c]'s kernel and its fingerprint, built and digested once per
    {!kernel_key} until {!Flow.clear_cache} ({!Flow.source}). *)
let stored_kernel (family : family) (c : candidate) : Tawa_ir.Kernel.t * string =
  Flow.source ~key:(kernel_key family c) (fun () -> kernel_of family c)

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
                              { (candidate tiles) with
                                aref_depth; mma_depth; coop; persistent; coarse })
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
          { (candidate tiles) with
            aref_depth = stages; mma_depth = 1; strategy = Flow.Sw_pipelined stages })
        axes.ax_sw_stages
  in
  ws @ sw

let space (family : family) : candidate list = expand (axes_of family)

(* ------------------------- prune + measure ------------------------ *)

(** [c]'s machine program, through the compile cache. *)
let program_of (family : family) (c : candidate) : Isa.program =
  (Flow.compile ~options:(options_of c) (kernel_of family c)).Flow.program

(** Compile [c] and ask the occupancy model for the verdict on its
    program: [Some reason] means the candidate is statically infeasible
    on an H100 SM and need not be simulated. {!search} times the
    program returned with it. *)
let verdict (family : family) (c : candidate) : Isa.program * string option =
  let program = program_of family c in
  ( program,
    match Resources.occupancy program with
    | Resources.Feasible _ -> None
    | Resources.Infeasible reason -> Some reason )

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

(** Decode [c]'s [program] with [prepare] and time its launch at
    scale, against [incumbent] if given ({!Launch.estimate_prepared}):
    the one place a candidate becomes a {!Launch.timing}. *)
let time_with ?incumbent prepare (family : family) (c : candidate) program : Launch.timing =
  let rep_pid, grid, params, flops = launch_of family c in
  Launch.estimate_prepared ~rep_pid ?incumbent (prepare program) ~params ~grid ~flops

(** {!time_with} under [cfg] (the caller chooses the mode), compiling
    {!stored_kernel} and decoding through the shared caches, so
    repeated timings build, digest, compile and decode once. A
    framework's figure cell is [time ~cfg:(quirk cfg) family c]. *)
let time ?incumbent ~cfg (family : family) (c : candidate) : Launch.timing =
  let kernel, fingerprint = stored_kernel family c in
  let compiled = Flow.compile ~fingerprint ~options:(options_of c) kernel in
  time_with ?incumbent (Engine.prepare ~cfg) family c compiled.Flow.program

let measurement_of (c : candidate) (t : Launch.timing) : measurement =
  { candidate = c; tflops = t.Launch.tflops; cycles = t.Launch.cycles }

(** {!time} projected to a measurement. *)
let measure ?(cfg = Config.h100) (family : family) (c : candidate) : measurement =
  measurement_of c (time ~cfg family c)

(** The best of [xs] by [tflops], forced in order: a later element
    replaces the running best only when strictly faster, so ties go to
    the earlier candidate (the order {!expand} fixes), and a lazy [xs]
    keeps only the running best alive. *)
let strict_best (tflops : 'a -> float) (xs : 'a Seq.t) : 'a =
  match xs () with
  | Seq.Nil -> invalid_arg "Autotune: empty candidate space"
  | Seq.Cons (hd, tl) ->
    Seq.fold_left (fun acc x -> if tflops x > tflops acc then x else acc) hd tl

(** The {!strict_best} of [cands] under [cfg], with its own timing.
    They are timed last to first, each against the best TFLOPS timed
    so far: a candidate that incumbent cuts is strictly slower than a
    finished one, so it can neither win nor tie, and the winner runs to
    the end. In that order a finished candidate replaces the running
    best unless the best is strictly faster, so ties go to the earlier
    candidate as in {!strict_best}, and only the running best stays
    alive. {!expand} lists the persistent, deeper-pipeline points last,
    where the paper sweep's winners are. *)
let fastest ~cfg (family : family) (cands : candidate list) : candidate * Launch.timing =
  let keep best c =
    let incumbent = Option.map (fun (_, (t : Launch.timing)) -> t.tflops) best in
    match time ?incumbent ~cfg family c with
    | t -> (
      match best with
      | Some (_, (b : Launch.timing)) when b.tflops > t.Launch.tflops -> best
      | _ -> Some (c, t))
    | exception Engine.Cut ->
      Tawa_obs.Registry.incr "autotune.cut";
      best
  in
  match List.fold_left keep None (List.rev cands) with
  | Some best -> best
  | None -> invalid_arg "Autotune: empty candidate space"

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
    { (candidate (tile 128 128 64)) with
      aref_depth = 3; mma_depth = 2; coop = 2; persistent = true }
  | Attention s ->
    { (candidate (tile 128 128 s.Workloads.head_dim)) with
      aref_depth = 2; mma_depth = 1; coarse = true }

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

let encode_measurement (m : measurement) : string =
  let c = m.candidate in
  Printf.sprintf "%s %d %d %d %d %d %d %d %d|%.17g|%.17g"
    (Flow.strategy_key c.strategy) c.tiles.Kernels.block_m c.tiles.Kernels.block_n
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
        ( Flow.strategy_of_key st,
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

(** Search [family]'s space: statically prune under the H100 limits,
    measure survivors in timing mode over the domain pool, return the
    {!strict_best} (so the result is deterministic). With [?store], a
    prior result for the same (shape bucket x kernel fingerprint) key
    is served directly — zero measurements — and a fresh result is
    persisted. *)
let search ?(cfg = Config.h100) ?store (family : family) : result =
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
    let verdicts = List.map (fun c -> (c, verdict family c)) cands in
    (* Every candidate is compiled once, and measured from the program
       its verdict read: drop the pass prefixes the candidates shared
       instead of keeping their kernels alive next to the programs. *)
    Tawa_passes.Manager.clear_cache ();
    let feasible =
      List.filter_map
        (fun (c, (p, v)) -> match v with None -> Some (c, p) | Some _ -> None)
        verdicts
    in
    let prune_reasons =
      count_reasons
        (List.filter_map (fun (_, (_, v)) -> v) verdicts)
    in
    let prune_fallback = feasible = [] in
    let to_measure =
      if prune_fallback then List.map (fun (c, (p, _)) -> (c, p)) verdicts else feasible
    in
    let pruned = if prune_fallback then 0 else total - List.length feasible in
    Tawa_obs.Registry.incr ~by:pruned "autotune.pruned";
    (* Each survivor is a distinct program, decoded once and run once.
       Through [Engine.prepare] it would only fill the shared decode
       cache with entries no later lookup hits, so it decodes here. *)
    let tcfg = { cfg with Config.mode = Config.Timing } in
    let ms =
      Tawa_pool.Pool.map_list
        (fun (c, p) -> measurement_of c (time_with (Decode.decode ~cfg:tcfg) family c p))
        to_measure
    in
    Tawa_obs.Registry.incr ~by:(List.length ms) "autotune.measured";
    let best = strict_best (fun m -> m.tflops) (List.to_seq ms) in
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

(* ------------------------ the paper's GEMM sweep ------------------ *)

(** The D/P sweep the paper's figures tune over (§V-A; Figs. 8, 11 and
    12): 128x128 tiles on one consumer warp group and 128x256 on two,
    D 1-4, P 1-3, persistent and not — 36 candidates once {!expand}
    drops P > D. No resource model prunes this sweep (ROADMAP item 3);
    {!fastest} stops the candidates that can no longer win. *)
let paper_gemm_axes : axes =
  {
    ax_tiles = [ (tile 128 128 64, [ 1 ]); (tile 128 256 64, [ 2 ]) ];
    ax_depths = [ 1; 2; 3; 4 ];
    ax_mma_depths = [ 1; 2; 3 ];
    ax_persistent = [ false; true ];
    ax_coarse = [ false ];
    ax_sw_stages = [];
  }

(** The paper sweep's candidates; both precisions sweep the same space. *)
let gemm_candidates ~dtype:(_ : Dtype.t) () = expand paper_gemm_axes

(** The best candidate of the paper sweep on [shape], with its timing. *)
let tune_gemm ?(cfg = Config.h100) (shape : Workloads.gemm_shape) =
  fastest ~cfg (Gemm shape) (gemm_candidates ~dtype:shape.Workloads.dtype ())

(** The (D, P) grid at a fixed tile shape — the data of Fig. 11. The
    points {!expand} drops (P > D) are [None]. *)
let dp_grid ?(cfg = Config.h100) ~(tiles : Kernels.tile_config) ~coop ~persistent
    (shape : Workloads.gemm_shape) ~max_d ~max_p =
  let upto n = List.init n (fun i -> i + 1) in
  let points =
    expand
      { ax_tiles = [ (tiles, [ coop ]) ]; ax_depths = upto max_d;
        ax_mma_depths = upto max_p; ax_persistent = [ persistent ];
        ax_coarse = [ false ]; ax_sw_stages = [] }
  in
  List.map
    (fun d ->
      List.map
        (fun p ->
          List.find_opt (fun c -> c.aref_depth = d && c.mma_depth = p) points
          |> Option.map (measure ~cfg (Gemm shape)))
        (upto max_p))
    (upto max_d)
