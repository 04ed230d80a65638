(** The event-driven scheduler for decoded CTAs, the decode cache, and
    the entry points every caller runs a CTA through.

    {!Decode} translates a machine program once into closure-compiled
    streams; {!run_decoded} schedules their warp groups. A tree-walking
    interpreter over the same ISA is kept in the test tree
    ([test/oracle.ml]) as the differential reference: outcomes (cycles,
    stats, stall and channel profiles, functional tensors, error
    messages) must match it bit for bit.

    The deep profiler hooks in here: pass [?recorder] to
    {!run_prepared}/{!run_cta} and op spans plus channel events are
    recorded (the recorder is runtime state, so it never perturbs the
    decode cache).

    Decoded programs are cached ({!Progcache}) keyed by program
    fingerprint x config digest, so repeated launches of the same
    program (bench sweeps, persistent grids, per-CTA fan-out) decode
    once. *)

open Tawa_ir
open Tawa_machine

let err fmt = Format.kasprintf (fun s -> raise (Sim.Sim_error s)) fmt

(* Retired-instruction counter across all domains, for the benchmark's
   simulated instructions/sec. Every run adds what it simulated, a run
   its [cut] stopped included. *)
let retired = Atomic.make 0
let instructions_retired () = Atomic.get retired

let retire (wgs : Decode.wg array) =
  let n = Array.fold_left (fun a w -> a + w.Decode.instret) 0 wgs in
  ignore (Atomic.fetch_and_add retired n);
  n

(** Raised when a warp group's clock reaches a run's [cut]. *)
exception Cut

(* --------------------- decoded scheduler loop --------------------- *)

(** Source instructions one CTA may retire before the run fails with
    "sim: step budget exhausted": a bound on runaway programs. *)
let max_steps = 50_000_000

(* The oracle's loop rescans every WG per iteration: try_unblock on
   all blocked WGs, then a linear min-scan over Running WGs. Here
   blocked WGs are woken by the barrier notify hooks the moment the
   satisfying arrival lands (the unblock time depends only on the
   recorded completion time and the waiter's frozen clock, so eager
   wake-up is bit-identical), and the min-scan is a binary heap pop:
   O(log #WGs) per retired instruction instead of O(#WGs).

   A popped WG keeps its scheduler slot and runs its next unit while
   it is still Running, not re-enqueued ([in_ready]: a self-releasing
   unit, such as a Fence arriving last, wakes its own WG), and either
   - the unit is [local] (timing mode: provably free of cross-WG
     interaction, see {!Decode.optimize_stream}), or
   - the WG is strictly before the heap top in [(time, index)] order,
     or the heap is empty. A push-then-pop would return this very WG,
     so the executed order is the oracle's. The test runs after each
     unit, against the top at that moment, since the unit may have
     woken other WGs.
   [w.lens.(pc)] is the number of source instructions the unit retires
   — 1, except for collapsed cost blocks and chains. The budget is
   still charged per source instruction, and the check stays ahead of
   execution, so "sim: step budget exhausted" fires before the same
   unit as the oracle's. [cut] is compared once per slot with the clock
   of the WG that just ran: clocks never fall, and the CTA's cycles are
   its largest final clock. *)
let run_decoded ?cut (ctx : Decode.ectx) : Sim.outcome =
  let open Decode in
  let wgs = ctx.wgs and q = ctx.ready in
  Array.iter ready_push wgs;
  let alive = ref (Array.length wgs) in
  let steps = ref 0 in
  let recd = ctx.recorder in
  while !alive > 0 do
    if !steps >= max_steps then err "sim: step budget exhausted";
    if q.n > 0 then begin
      let w = ready_pop_exn ctx in
      let code = w.code and lens = w.lens and local = w.local in
      let lim = Bytes.length local in
      let continue = ref true in
      while !continue do
        let pc = w.pc in
        let len = lens.(pc) in
        steps := !steps + len;
        if !steps > max_steps then err "sim: step budget exhausted";
        w.instret <- w.instret + len;
        (match recd with
        | Some r ->
          (* Op spans per scheduler unit. Collapsed cost blocks span
             all their members, attributed to the block's first pc. A
             unit that left [in_ready] set is a self-releasing Fence:
             its span was already recorded by [release_fences]. *)
          let t0 = w.c.t in
          code.(pc) w;
          if (not w.in_ready) && w.c.t > t0 then
            Tawa_obs.Prof.record_op r ~wg:w.index ~pc ~t0 ~t1:w.c.t
        | None -> code.(pc) w);
        match w.state with
        | Sim.Running when not w.in_ready ->
          let pc = w.pc in
          if (pc >= lim || Bytes.unsafe_get local pc = '\000') && q.n > 0 then begin
            let top = wgs.(q.heap.(0)) in
            let t = w.c.t and tt = top.c.t in
            if not (t < tt || (t = tt && w.index < top.index)) then continue := false
          end
        | _ -> continue := false
      done;
      (* Only the executing WG can finish; blocked WGs re-enter the
         heap via the wake hooks (possibly already, if this very
         instruction released them). *)
      (match w.state with
      | Sim.Running -> ready_push w
      | Sim.Finished -> decr alive
      | Sim.Blocked _ -> ());
      match cut with Some at when w.c.t >= at -> ignore (retire wgs); raise Cut | _ -> ()
    end
    else
      let blocked =
        Array.to_list wgs
        |> List.filter (fun w -> w.state <> Sim.Finished)
        |> List.map (fun w ->
               Printf.sprintf "wg%d(%s)@pc%d: %s" w.index
                 (Op.role_to_string w.role)
                 w.pc
                 (match w.state with
                 | Sim.Blocked (Sim.On_mbar { bar; target }) ->
                   Printf.sprintf "mbar %d >= %d (have %d)" bar target
                     (Mbarrier.completions ctx.mbars.(bar))
                 | Sim.Blocked (Sim.On_ring { ring; target }) ->
                   Printf.sprintf "ring %d >= %d (have %d)" ring target
                     (Mbarrier.completions ctx.rings.(ring))
                 | Sim.Blocked Sim.On_fence -> "fence"
                 | Sim.Running | Sim.Finished -> "?"))
      in
      err "sim: deadlock: %s" (String.concat "; " blocked)
  done;
  let cycles = Array.fold_left (fun acc w -> Float.max acc w.c.t) 0.0 wgs in
  let stats = ctx.stats in
  stats.Sim.steps <- !steps;
  stats.Sim.tc_busy <- ctx.pipes.tc_busy;
  stats.Sim.tma_busy <- ctx.pipes.tma_busy;
  stats.Sim.tma_bytes <- ctx.pipes.tma_bytes;
  {
    Sim.cycles;
    stats;
    instructions = retire wgs;
    profile = profile_of_ctx ~wall:cycles ctx;
  }

(* ------------------------- decode caching ------------------------- *)

let decode_cache : Decode.t Progcache.t = Progcache.create ~name:"engine.decode" ()
let clear_decode_cache () = Progcache.clear decode_cache
let decode_cache_stats () = Progcache.stats decode_cache

(* Cost-model fields change the compiled closures (costs are folded at
   decode time), so the whole config is part of the key. The execution
   mode is keyed separately (readably) so functional and timing decodes
   of the same program never alias. *)
let digest_cfg (cfg : Config.t) =
  let norm = { cfg with Config.mode = Config.Timing } in
  Digest.to_hex (Digest.string (Marshal.to_string norm []))

(* The configs digested so far, by physical identity: a sweep launches
   under a few config values (the machine's and each framework's quirk
   config, built once), so a key marshals neither the program
   ({!Progcache.program_fingerprint} is memoized) nor the config. The
   list starts over at [digests_max] entries; a lost race only costs a
   second digest. *)
let digests = Atomic.make [ (Config.h100, digest_cfg Config.h100) ]
let digests_max = 16

let cfg_digest (cfg : Config.t) =
  match List.assq_opt cfg (Atomic.get digests) with
  | Some d -> d
  | None ->
    let d = digest_cfg cfg in
    let seen = Atomic.get digests in
    Atomic.set digests ((cfg, d) :: (if List.length seen >= digests_max then [] else seen));
    d

let cache_key (cfg : Config.t) program =
  Progcache.program_fingerprint program
  ^ "|" ^ cfg_digest cfg
  ^ "|" ^ Config.mode_to_string cfg.Config.mode

(* ------------------------------ API ------------------------------- *)

(** A decoded program, ready to run any CTA of a launch. *)
type prepared = Decode.t

(** Decode [program] for [cfg], through the decode cache. One [prepare]
    per launch amortizes the cache-key digest over all CTAs of the
    grid. *)
let prepare ~(cfg : Config.t) (program : Isa.program) : prepared =
  Progcache.find_or_add decode_cache ~key:(cache_key cfg program) (fun () ->
      Decode.decode ~cfg program)

(** Run one CTA of a prepared program. [pid] is the CTA's program id
    (non-persistent grids); persistent CTAs leave it at the default and
    pop work items instead. A clock that reaches [cut] stops the run
    with {!Cut}. *)
let run_prepared ?recorder ?cut (p : prepared) ~(params : Sim.rt list)
    ~(num_programs : int array) ?(pid = [| 0; 0; 0 |])
    ~(pop_global : unit -> int) () : Sim.outcome =
  run_decoded ?cut (Decode.make_ctx ?recorder p ~params ~num_programs ~pid ~pop_global)

(** Prepare-and-run a single CTA (tests, one-shot launches). *)
let run_cta ?recorder ~(cfg : Config.t) ~(program : Isa.program)
    ~(params : Sim.rt list) ~(num_programs : int array)
    ?pid ~(pop_global : unit -> int) () : Sim.outcome =
  run_prepared ?recorder (prepare ~cfg program) ~params
    ~num_programs ?pid ~pop_global ()
