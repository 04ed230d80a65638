(** Simulated Hopper mbarriers.

    A barrier completes a phase when [arrive_count] arrivals (plus, for
    TMA-fed barriers, the expected transaction bytes — folded into the
    arrival model here) have been observed. The simulator tracks the
    full completion history with timestamps; the hardware's phase
    parity bit is the low bit of the completion count. A waiter asking
    for completion [n] either time-warps to the recorded completion
    instant (the completion is already determined by an issued async
    op) or blocks until a future arrival materializes it. *)

type t = {
  arrive_count : int;                     (* arrivals per phase completion *)
  mutable pending : int;                  (* arrivals in the current phase *)
  mutable pending_time : float;           (* latest arrival time this phase *)
  mutable completions : float array;      (* completion times, in order; only
                                             the first [num_completions] cells
                                             are meaningful *)
  mutable num_completions : int;
  mutable notify : (t -> unit) option;
      (* invoked after each phase completion; the event-driven engine
         hangs its wake-up of blocked waiters here so arrivals
         re-enqueue waiters directly instead of every scheduler
         iteration rescanning all warp groups. Survives [reset]: a
         phase reset clears the completion history, not the waiters. *)
  (* Telemetry (DESIGN.md §10). Cumulative over the barrier's lifetime,
     surviving [reset]; none of it feeds back into timing. *)
  mutable arrivals_total : int;           (* every [arrive] call *)
  mutable completions_total : int;        (* phase completions, incl. pre-reset *)
  mutable max_pending : int;              (* high-water of in-phase arrivals *)
  mutable consumed : int;                 (* highest target successfully waited
                                             since the last [reset]; the engine
                                             and the test oracle raise it at
                                             every successful wait, in the
                                             same scheduler order *)
  mutable max_inflight : int;             (* high-water of completions a consumer
                                             had not yet waited on *)
}

let create ~arrive_count =
  if arrive_count <= 0 then invalid_arg "Mbarrier.create";
  { arrive_count; pending = 0; pending_time = 0.0;
    completions = Array.make 8 0.0; num_completions = 0;
    notify = None;
    arrivals_total = 0; completions_total = 0; max_pending = 0; consumed = 0;
    max_inflight = 0 }

let set_notify b f = b.notify <- Some f

let reset b =
  b.pending <- 0;
  b.pending_time <- 0.0;
  b.num_completions <- 0;
  (* Wait targets restart with the phase numbering; cumulative telemetry
     (arrivals/completions/high-waters) survives. *)
  b.consumed <- 0

(** Record one arrival at [time]. Returns [true] when this arrival
    completes a phase. *)
let arrive b ~time =
  b.pending <- b.pending + 1;
  b.arrivals_total <- b.arrivals_total + 1;
  if b.pending > b.max_pending then b.max_pending <- b.pending;
  if time > b.pending_time then b.pending_time <- time;
  if b.pending >= b.arrive_count then begin
    b.pending <- 0;
    let t = b.pending_time in
    b.pending_time <- 0.0;
    (if b.num_completions >= Array.length b.completions then begin
       let bigger = Array.make (2 * Array.length b.completions) 0.0 in
       Array.blit b.completions 0 bigger 0 b.num_completions;
       b.completions <- bigger
     end);
    b.completions.(b.num_completions) <- t;
    b.num_completions <- b.num_completions + 1;
    b.completions_total <- b.completions_total + 1;
    (* In-flight depth: phases produced but not yet consumed by a
       successful wait — the channel's instantaneous buffer pressure. *)
    let inflight = b.num_completions - b.consumed in
    if inflight > b.max_inflight then b.max_inflight <- inflight;
    (match b.notify with Some f -> f b | None -> ());
    true
  end
  else false

let arrivals_total b = b.arrivals_total
let completions_total b = b.completions_total
let max_pending b = b.max_pending
let max_inflight b = b.max_inflight

let completions b = b.num_completions

(** Time at which completion number [n] (1-based) occurred; requires
    [n <= completions b]. *)
let completion_time b n =
  if n <= 0 then 0.0
  else if n > b.num_completions then
    invalid_arg "Mbarrier.completion_time: not completed"
  else b.completions.(n - 1)

(** Can a waiter demanding [target] completions proceed, and if so, at
    what time? *)
let try_wait b ~target =
  if target <= 0 then Some 0.0
  else if b.num_completions >= target then Some (completion_time b target)
  else None
