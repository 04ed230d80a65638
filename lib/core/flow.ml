(** The Tawa compilation flow (Fig. 2a): frontend kernel -> Tawa passes
    -> machine program, with one options record covering both the IR
    transformations and code generation. This is the primary public
    entry point of the library. *)

open Tawa_ir
open Tawa_passes
open Tawa_machine

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

let strategy_key = function
  | Warp_specialized -> "ws"
  | Sw_pipelined stages -> Printf.sprintf "sw%d" stages
  | Sync_tma -> "sync"
  | Naive -> "naive"

type options = {
  aref_depth : int;        (* D (§III-B) *)
  mma_depth : int;         (* P (§III-D.1) *)
  num_consumer_wgs : int;  (* cooperative consumer warp groups (§IV-A) *)
  persistent : bool;       (* persistent kernels (§IV-B) *)
  use_coarse : bool;       (* coarse-grained T/C/U pipeline (§III-D.2) *)
  strategy : strategy;     (* lowering strategy; baselines ignore D/P/coop *)
}

let default_options =
  { aref_depth = 2; mma_depth = 2; num_consumer_wgs = 1; persistent = false;
    use_coarse = false; strategy = Warp_specialized }

type compiled = {
  source : Kernel.t;            (* the frontend kernel, untouched *)
  transformed : Kernel.t;       (* after the Tawa passes *)
  program : Isa.program;        (* lowered machine code *)
  warp_specialized : bool;
  coarse : bool;
  options : options;
}

(* ------------------------- compile cache -------------------------- *)

(* Everything a cache hit must reproduce. [source] is excluded: it is
   the caller's kernel and differs (by value ids) between hits.
   Cached [transformed]/[program] are shared between hits — both are
   treated as read-only downstream (the simulator never mutates the
   program it executes). *)
type cache_entry = {
  e_transformed : Kernel.t;
  e_program : Isa.program;
  e_ws : bool;
  e_coarse : bool;
}

let cache : cache_entry Progcache.t = Progcache.create ~name:"flow.compile" ()

(** Hit/miss counters of the compiled-program cache. *)
let cache_stats () = Progcache.stats cache

(** Empty the compile cache and the pass prefixes {!Manager.compile}
    shares, so the next compile of any kernel starts cold. *)
let clear_cache () =
  Progcache.clear cache;
  Manager.clear_cache ()

let options_key (o : options) =
  Printf.sprintf "d%d.p%d.c%d.%b.%b.%s" o.aref_depth o.mma_depth
    o.num_consumer_wgs o.persistent o.use_coarse (strategy_key o.strategy)

let hit kernel (e : cache_entry) options =
  {
    source = kernel;
    transformed = e.e_transformed;
    program = e.e_program;
    warp_specialized = e.e_ws;
    coarse = e.e_coarse;
    options;
  }

(** Run every arefcheck analysis on a compiled kernel: the IR-level
    protocol checks on the transformed kernel plus the ISA-level
    mbarrier/SMEM checks on the lowered program. *)
let check_compiled (c : compiled) : Tawa_analysis.Diagnostic.t list =
  Tawa_analysis.Arefcheck.check_kernel c.transformed
  @ Tawa_analysis.Arefcheck.check_program c.program

(* Kept as the identity for the benchmark harness, which still calls
   it; compilation runs no analysis implicitly. *)
let maybe_env_check (c : compiled) = c

(** Compile [kernel] without the compile cache. [fingerprint], when
    given, is [kernel]'s {!Progcache.kernel_fingerprint}, which the
    pass pipeline keys its shared prefixes on. *)
let build_entry ?fingerprint (options : options) (kernel : Kernel.t) : cache_entry =
  match options.strategy with
  | Warp_specialized ->
    let mopts =
      {
        Manager.default_options with
        aref_depth = options.aref_depth;
        mma_depth = options.mma_depth;
        num_consumer_wgs = options.num_consumer_wgs;
        persistent = options.persistent;
        use_coarse = options.use_coarse;
      }
    in
    let r = Manager.compile ?fingerprint ~options:mopts kernel in
    let program = Codegen.lower r.Manager.kernel in
    { e_transformed = r.Manager.kernel; e_program = program;
      e_ws = r.Manager.warp_specialized; e_coarse = r.Manager.coarse }
  | Sw_pipelined stages ->
    (* A kernel with no TMA-fed loop has nothing to prefetch: it is
       lowered unpipelined, as warp specialization degrades. *)
    let transformed =
      match Sw_pipeline.apply ~stages kernel with
      | k ->
        Verifier.verify k;
        k
      | exception Pass.Not_applicable _ -> kernel
    in
    { e_transformed = transformed; e_program = Codegen.lower transformed;
      e_ws = false; e_coarse = false }
  | Sync_tma ->
    { e_transformed = kernel; e_program = Codegen.lower kernel;
      e_ws = false; e_coarse = false }
  | Naive ->
    let transformed = Kernel.with_attr kernel "load_style" (Op.Attr_string "ldg") in
    { e_transformed = transformed; e_program = Codegen.lower transformed;
      e_ws = false; e_coarse = false }

(** Compile a frontend kernel with the strategy selected by
    [options.strategy] (the full Tawa pipeline by default).
    Memoized on (kernel fingerprint, options): repeated compiles of a
    structurally identical kernel return the cached program; the
    strategy participates in the key, so baselines never alias the
    warp-specialized build. *)
let compile ?(options = default_options) (kernel : Kernel.t) : compiled =
  let fingerprint = Progcache.kernel_fingerprint kernel in
  let key = Printf.sprintf "%s|%s" fingerprint (options_key options) in
  let e = Progcache.find_or_add cache ~key (fun () -> build_entry ~fingerprint options kernel) in
  hit kernel e options

let dump_ir ?ids (c : compiled) = Printer.kernel_to_string ?ids c.transformed
let dump_asm (c : compiled) = Isa.program_to_string c.program
