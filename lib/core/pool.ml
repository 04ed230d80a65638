(** A persistent domain pool for embarrassingly-parallel work on the
    OCaml 5 multicore runtime.

    One process-wide pool ({!shared}) owns a set of long-lived helper
    domains. Each [map]/[iter] call posts a job — an index range and a
    body — wakes the helpers, and participates as a worker itself;
    workers pull indices from a shared atomic counter (self-balancing
    "work stealing" at item granularity). Results are written back by
    index, so the output order — and therefore any fold over it — is
    independent of the execution interleaving: determinism by
    construction.

    Helpers are spawned on first parallel use and grown on demand, then
    reused: the [domains_spawned] gauge counts lifetime spawns and
    stays flat across repeated launches of the same width (it used to
    grow per call when every [map] spawned fresh domains — measurable
    launch overhead for grid fan-outs, and the graph scheduler's replay
    loop would have paid it per wave). Idle helpers park on a condition
    variable and cost nothing between jobs; they are joined by an
    [at_exit] hook.

    Sizing: one process-wide width for every call — an override set
    with {!set_default_domains} (used by the tests and the benchmark to
    pin a domain count); otherwise the [TAWA_DOMAINS] environment
    variable; otherwise [Domain.recommended_domain_count ()]. At size 1 (or on singleton /
    empty inputs) every entry point degrades to a plain sequential
    loop that never touches the pool, which is the deterministic
    fallback the tests pin against. When a job requests fewer workers
    than the pool holds, every resident helper still participates —
    extra workers only shift which indices each one pulls, and
    index-addressed writes keep the result identical.

    Nested calls never oversubscribe: a [map] issued from inside a
    pool worker (e.g. a parallel bench sweep point that itself runs a
    parallel grid) runs sequentially in that worker.

    Exceptions: the first worker failure (by completion order) is
    recorded, remaining work is abandoned cooperatively, the job still
    runs to quiescence (all workers checked in), and the original
    exception is re-raised with its backtrace in the calling domain. *)

let env_domains () =
  match Sys.getenv_opt "TAWA_DOMAINS" with
  | None -> None
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> Some n
    | _ -> None)

(* Process-wide override; [None] defers to the environment. *)
let override : int option Atomic.t = Atomic.make None

let set_default_domains n = Atomic.set override n

let default_domains () =
  match Atomic.get override with
  | Some n -> max 1 n
  | None -> (
    match env_domains () with
    | Some n -> n
    | None -> max 1 (Domain.recommended_domain_count ()))

(* True inside a pool worker; nested pools degrade to sequential. *)
let in_worker : bool Domain.DLS.key = Domain.DLS.new_key (fun () -> false)

(* Lifetime count of helper domains spawned. On a 1-core host (or
   TAWA_DOMAINS=1) this must stay 0: spawning a helper just to run the
   whole range costs more than the sequential loop it replaces
   (BENCH_PR1.json measured 0.95x). Since the pool became persistent
   this is a high-water mark, not a per-launch cost: repeated parallel
   maps at the same width leave it unchanged. The tests pin both. *)
let spawned = Atomic.make 0

let domains_spawned () = Atomic.get spawned

let resolve_domains n =
  if Domain.DLS.get in_worker then 1 else min (default_domains ()) (max 1 n)

(* ------------------------- the shared pool ------------------------- *)

(* A job is one posted index range. [next] is the stealing counter;
   [body] must only write state owned by its index. [expect] is the
   helper count at post time: the submitter cannot return (and the next
   job cannot be posted) until that many helpers checked in, so a job's
   closures never outlive its submission. *)
type job = {
  n : int;
  body : int -> unit;
  next : int Atomic.t;
  error : (exn * Printexc.raw_backtrace) option Atomic.t;
  expect : int;
  mutable checked_in : int;
}

type handle = {
  m : Mutex.t;
  work : Condition.t; (* a job was posted, or the pool is stopping *)
  done_ : Condition.t; (* a helper checked in *)
  submit : Mutex.t; (* serializes whole jobs across calling domains *)
  mutable helpers : unit Domain.t list;
  mutable nhelpers : int;
  mutable gen : int;
  mutable job : (int * job) option; (* (generation, job) *)
  mutable stopping : bool;
}

let the_pool =
  {
    m = Mutex.create ();
    work = Condition.create ();
    done_ = Condition.create ();
    submit = Mutex.create ();
    helpers = [];
    nhelpers = 0;
    gen = 0;
    job = None;
    stopping = false;
  }

let helpers h = h.nhelpers

(* Pull indices until the range is drained or a failure was recorded.
   Exceptions from [body] are captured (first one wins), never thrown
   past the worker loop. *)
let drain (job : job) =
  let continue = ref true in
  while !continue do
    let i = Atomic.fetch_and_add job.next 1 in
    if i >= job.n || Atomic.get job.error <> None then continue := false
    else
      try job.body i
      with e ->
        let bt = Printexc.get_raw_backtrace () in
        ignore (Atomic.compare_and_set job.error None (Some (e, bt)))
  done

let rec helper_loop h last_gen =
  Mutex.lock h.m;
  let rec await () =
    if h.stopping then None
    else
      match h.job with
      | Some (g, job) when g <> last_gen -> Some (g, job)
      | _ ->
        Condition.wait h.work h.m;
        await ()
  in
  match await () with
  | None -> Mutex.unlock h.m
  | Some (g, job) ->
    Mutex.unlock h.m;
    Domain.DLS.set in_worker true;
    drain job;
    Domain.DLS.set in_worker false;
    Mutex.lock h.m;
    job.checked_in <- job.checked_in + 1;
    if job.checked_in >= job.expect then Condition.broadcast h.done_;
    Mutex.unlock h.m;
    helper_loop h g

(* Grow the resident helper set to [target]. Only called with the
   submit lock held and no job in flight, so new helpers can never
   observe a half-finished generation. The pool never shrinks: parked
   helpers are free, and keeping them is the whole point. *)
let ensure_helpers h target =
  (* Capture the generation before spawning: the helper may only start
     running after the submitter has already posted the next job, and
     reading [h.gen] then would make it skip that job (and deadlock the
     submitter waiting for its check-in). *)
  let g0 = h.gen in
  while h.nhelpers < target do
    Atomic.incr spawned;
    h.helpers <- Domain.spawn (fun () -> helper_loop h g0) :: h.helpers;
    h.nhelpers <- h.nhelpers + 1
  done

(** Spawn helpers up front so the first parallel call does not pay the
    spawn inside its own wall-clock (the graph scheduler warms the pool
    at instantiate time, keeping replays spawn-free). Sized like [map];
    a width [<= 1] is a no-op. *)
let warm h =
  Mutex.lock h.submit;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock h.submit)
    (fun () ->
      let d = resolve_domains max_int in
      if d > 1 then ensure_helpers h (d - 1))

(** Join every helper domain; the pool is reusable afterwards (the next
    parallel call respawns). Registered [at_exit] so the process never
    hangs on parked domains. *)
let shutdown h =
  Mutex.lock h.submit;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock h.submit)
    (fun () ->
      Mutex.lock h.m;
      h.stopping <- true;
      Condition.broadcast h.work;
      Mutex.unlock h.m;
      List.iter Domain.join h.helpers;
      h.helpers <- [];
      h.nhelpers <- 0;
      h.stopping <- false)

let exit_hook_installed = Atomic.make false

(** The process-wide pool. The handle is shared by [Launch] grid
    fan-outs, the autotuner's measurement sweeps, and the task-graph
    wave scheduler — one resident worker set for all of them. *)
let shared () =
  if not (Atomic.exchange exit_hook_installed true) then
    at_exit (fun () -> shutdown the_pool);
  the_pool

(* Post one job on the shared pool and participate until it completes.
   Requires domains > 1 and n > 0. *)
let run_shared ~domains ~n body =
  let h = shared () in
  Mutex.lock h.submit;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock h.submit)
    (fun () ->
      ensure_helpers h (domains - 1);
      let job =
        {
          n;
          body;
          next = Atomic.make 0;
          error = Atomic.make None;
          expect = h.nhelpers;
          checked_in = 0;
        }
      in
      Mutex.lock h.m;
      h.gen <- h.gen + 1;
      h.job <- Some (h.gen, job);
      Condition.broadcast h.work;
      Mutex.unlock h.m;
      Domain.DLS.set in_worker true;
      drain job;
      Domain.DLS.set in_worker false;
      Mutex.lock h.m;
      while job.checked_in < job.expect do
        Condition.wait h.done_ h.m
      done;
      h.job <- None;
      Mutex.unlock h.m;
      match Atomic.get job.error with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ())

(* Shared parallel driver: run [body i] for all [i < n], first
   exception wins. [body] must only write state owned by index [i]. *)
let run_indices ~domains ~n body =
  if n > 0 then
    if domains <= 1 then
      for i = 0 to n - 1 do
        body i
      done
    else run_shared ~domains ~n body

let () =
  Tawa_obs.Registry.register_gauge "pool.domains_spawned" (fun () ->
      Tawa_obs.Registry.Int (Atomic.get spawned));
  Tawa_obs.Registry.register_gauge "pool.default_domains" (fun () ->
      Tawa_obs.Registry.Int (default_domains ()));
  Tawa_obs.Registry.register_gauge "pool.resident_helpers" (fun () ->
      Tawa_obs.Registry.Int the_pool.nhelpers)

(** [map f xs] is [Array.map f xs] evaluated in parallel.
    Output order matches input order regardless of domain count. *)
let map f xs =
  let n = Array.length xs in
  let domains = resolve_domains n in
  if domains <= 1 then Array.map f xs
  else begin
    let results = Array.make n None in
    run_indices ~domains ~n (fun i -> results.(i) <- Some (f xs.(i)));
    Array.map
      (function Some v -> v | None -> invalid_arg "Pool.map: missing result")
      results
  end

(** [iter f xs] applies [f] to every element; [f] must only touch
    state owned by its element (disjoint output tiles). *)
let iter f xs =
  let n = Array.length xs in
  let domains = resolve_domains n in
  if domains <= 1 then Array.iter f xs
  else run_indices ~domains ~n (fun i -> f xs.(i))

(** [map_list] is {!map} over a list, preserving order. *)
let map_list f xs = Array.to_list (map f (Array.of_list xs))

(** [run_all thunks] forces independent computations in parallel and
    returns their results in order. *)
let run_all (thunks : (unit -> 'a) array) : 'a array = map (fun f -> f ()) thunks

(** Parallel max-reduction of [f] over [xs] — the grid-cycles shape:
    order-independent because [max] is associative and commutative. *)
let max_float f xs = Array.fold_left Float.max 0.0 (map f xs)
