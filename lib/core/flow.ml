(** The Tawa compilation flow (Fig. 2a): frontend kernel -> Tawa passes
    -> machine program. The settings are {!Tawa_passes.Options}, which
    this module includes: [Flow.options] is the record the pass manager
    and the partitioner read, and code generation reads only the
    kernel the passes return. This is the primary public entry point of
    the library. *)

open Tawa_ir
open Tawa_passes
open Tawa_machine

include Options

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

(* Frontend kernels with their fingerprints, keyed by the caller on
   the inputs of the builder that made them ({!source}). Sharing a
   kernel is safe for the reason sharing pass prefixes is: no pass
   changes its input, and neither does code generation. *)
let sources : (Kernel.t * string) Progcache.t = Progcache.create ()

(** [source ~key build]: the kernel [build ()] returned the first time
    [key] was asked for since the last {!clear_cache}, with its
    {!Progcache.kernel_fingerprint}, so a warm compile of it through
    [compile ~fingerprint] neither rebuilds nor digests it. [key] must
    name everything [build] reads. *)
let source ~key build =
  Progcache.find_or_add sources ~key (fun () ->
      let kernel = build () in
      (kernel, Progcache.kernel_fingerprint kernel))

(** Empty the compile cache, the pass prefixes {!Manager.compile}
    shares and the stored {!source} kernels, so the next compile of any
    kernel starts cold. *)
let clear_cache () =
  Progcache.clear cache;
  Progcache.clear sources;
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
    protocol checks on the transformed kernel plus the mbarrier pairing
    of the lowered program. *)
let check_compiled (c : compiled) : Tawa_analysis.Diagnostic.t list =
  Tawa_analysis.Arefcheck.check_kernel c.transformed
  @ Tawa_analysis.Check_mbarrier.run c.program

(* Kept as the identity for the benchmark harness, which still calls
   it; compilation runs no analysis implicitly. *)
let maybe_env_check (c : compiled) = c

(** Compile [kernel] without the compile cache: {!Manager.compile}
    runs the strategy's passes, and code generation lowers what they
    return. [fingerprint], when given, is [kernel]'s
    {!Progcache.kernel_fingerprint}, which the pass pipeline keys its
    shared prefixes on. *)
let build_entry ?fingerprint (options : options) (kernel : Kernel.t) : cache_entry =
  let r = Manager.compile ?fingerprint ~options kernel in
  { e_transformed = r.Manager.kernel; e_program = Codegen.lower r.Manager.kernel;
    e_ws = r.Manager.warp_specialized; e_coarse = r.Manager.coarse }

(** Compile a frontend kernel with the strategy selected by
    [options.strategy] (the full Tawa pipeline by default).
    Memoized on (kernel fingerprint, options): repeated compiles of a
    structurally identical kernel return the cached program; the
    strategy participates in the key, so baselines never alias the
    warp-specialized build. [fingerprint], when given, is [kernel]'s
    {!Progcache.kernel_fingerprint} (as {!source} returns it), which
    the call then does not compute. *)
let compile ?fingerprint ?(options = default_options) (kernel : Kernel.t) : compiled =
  let fingerprint =
    match fingerprint with Some fp -> fp | None -> Progcache.kernel_fingerprint kernel
  in
  let key = Printf.sprintf "%s|%s" fingerprint (options_key options) in
  let e = Progcache.find_or_add cache ~key (fun () -> build_entry ~fingerprint options kernel) in
  hit kernel e options

let dump_ir ?ids (c : compiled) = Printer.kernel_to_string ?ids c.transformed
let dump_asm (c : compiled) = Isa.program_to_string c.program
