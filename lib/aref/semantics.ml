(** Executable operational semantics of the aref abstraction (Fig. 4 of
    the paper).

    An aref packages a one-slot buffer with two synchronization
    primitives, the [empty] and [full] mbarrier credits. The store maps
    an aref to [<buf, F, E>]; the three states below are the only ones
    the rules reach, so the invariant of §III-B (at most one of [F]/[E]
    holds a credit) holds by construction:

    - [E = 1, F = 0]: the slot may be written by the producer;
    - [F = 1, E = 0]: the slot holds a published value;
    - [F = 0, E = 0]: the value is borrowed by the consumer.

    The three operations implement exactly the PUT / GET / CONSUMED
    rules: an operation whose premise does not hold is [Blocked] —
    mirroring a warp waiting on an mbarrier — rather than an error.
    Transitions that a correct lowering can never attempt (e.g.
    [consumed] on a slot that is already empty) are protocol errors and
    are reported as such. *)

type 'a state =
  | Empty                  (** E = 1, F = 0 *)
  | Full of 'a             (** F = 1, E = 0 *)
  | Borrowed of 'a         (** F = 0, E = 0: read, not yet released *)

type 'a t = { mutable state : 'a state }

(** Initially E = 1, F = 0 (paper, Fig. 4 caption). *)
let create () = { state = Empty }

type 'a step =
  | Ok of 'a               (** the rule fired; payload is the result *)
  | Blocked                (** premise does not hold; the warp would wait *)

exception Protocol_error of string

(** PUT: requires E = 1; writes the payload and flips to F = 1. *)
let put (a : 'a t) (v : 'a) : unit step =
  match a.state with
  | Empty ->
    a.state <- Full v;
    Ok ()
  | Full _ | Borrowed _ -> Blocked

(** GET: requires F = 1; reads the buffer and moves to the borrowed
    state (neither credit held). *)
let get (a : 'a t) : 'a step =
  match a.state with
  | Full v ->
    a.state <- Borrowed v;
    Ok v
  | Empty | Borrowed _ -> Blocked

(** CONSUMED: arrives on the empty barrier, restoring E = 1. Only legal
    from the borrowed state; firing it while the slot is empty would be
    a double-release and while it is full would discard an unread value
    — both indicate a broken lowering. *)
let consumed (a : 'a t) : unit step =
  match a.state with
  | Borrowed _ ->
    a.state <- Empty;
    Ok ()
  | Empty -> raise (Protocol_error "consumed on empty slot (double release)")
  | Full _ -> raise (Protocol_error "consumed on full slot (value never read)")
