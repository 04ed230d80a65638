(** The compile settings: one record the pass manager, the partitioner
    and {!Tawa_core.Flow} read. [Manager] and [Flow] include this
    module, so [Flow.options], [Manager.default_options] and
    [o.Flow.aref_depth] all name what is declared here. *)

(** How the kernel is lowered. [Warp_specialized] is the full Tawa
    pipeline; the other three are the paper's baselines:
    - [Sw_pipelined stages] — Triton-style Ampere software pipelining
      (no warp specialization; callers set [aref_depth = stages] so
      reports show the pipeline depth);
    - [Sync_tma] — synchronous TMA, loads wait immediately (no overlap);
    - [Naive] — plain global loads (the Fig. 12 "w/o WS" ablation).
    Folding the choice into {!options} lets callers — the autotuner in
    particular — enumerate strategies through one entry point. *)
type strategy =
  | Warp_specialized
  | Sw_pipelined of int
  | Sync_tma
  | Naive

type options = {
  aref_depth : int;        (* D: slots per aref ring (§III-B) *)
  mma_depth : int;         (* P: fine-grained MMA pipeline depth (§III-D.1) *)
  num_consumer_wgs : int;  (* cooperative consumer warp groups (§IV-A) *)
  persistent : bool;       (* persistent kernels (§IV-B) *)
  use_coarse : bool;       (* coarse-grained T/C/U pipeline (§III-D.2) *)
  strategy : strategy;     (* lowering strategy; baselines ignore D/P/coop *)
}

let default_options =
  { aref_depth = 2; mma_depth = 2; num_consumer_wgs = 1; persistent = false;
    use_coarse = false; strategy = Warp_specialized }

(** The strategy's text key: compile-cache keys, tunestore entries and
    the autotuner's JSON. *)
let strategy_key = function
  | Warp_specialized -> "ws"
  | Sw_pipelined stages -> Printf.sprintf "sw%d" stages
  | Sync_tma -> "sync"
  | Naive -> "naive"

(** The inverse of {!strategy_key}; [None] for text no strategy
    prints. *)
let strategy_of_key s : strategy option =
  match s with
  | "ws" -> Some Warp_specialized
  | "sync" -> Some Sync_tma
  | "naive" -> Some Naive
  | _ ->
    if String.length s > 2 && String.sub s 0 2 = "sw" then
      match int_of_string_opt (String.sub s 2 (String.length s - 2)) with
      | Some stages when stages >= 1 -> Some (Sw_pipelined stages)
      | _ -> None
    else None
