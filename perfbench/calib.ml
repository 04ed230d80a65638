(* Host-speed calibration and the statistics every metric goes through.

   The shared hosts this benchmark runs on change speed from moment to
   moment (ALU-only loops and DRAM pointer chases do not see it,
   allocation- and hash-heavy code does). Every host-time metric is
   therefore read against a fixed CPU-only loop that is run next to the
   measured work: a wall time [w] measured between two
   calibration rounds of [c0] and [c1] seconds is reported as
   [w *. ref_s /. ((c0 +. c1) /. 2)], where [ref_s] is the constant the
   benchmark command passes as [--calib-ref-ms]. The loop is shaped like
   the simulator and the compiler (small trees built and walked, string
   keys hashed into a table), because that is what tracks the slowdowns
   the measured code suffers. It calls nothing from the library under
   test, so a change to the library cannot move its own yardstick. *)

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

(* ------------------------- calibration loop ------------------------ *)

type expr = Lit of float | Var of string | Add of expr * expr | Mul of expr * expr

let rec build depth i =
  if depth = 0 then
    if i land 1 = 0 then Lit (Float.of_int i)
    else Var ("v" ^ string_of_int (i land 63))
  else if i land 1 = 0 then
    Add (build (depth - 1) ((i * 3) + 1), build (depth - 1) (i + 7))
  else Mul (build (depth - 1) (i + 5), build (depth - 1) ((i * 5) + 2))

let loop_iters = 170

(* One pass of the calibration loop on the calling domain. Deterministic:
   the same trees, the same keys, the same result on every call. *)
let loop () =
  let env = Hashtbl.create 64 in
  for i = 0 to 63 do
    Hashtbl.replace env ("v" ^ string_of_int i) (Float.of_int i)
  done;
  let rec eval = function
    | Lit f -> f
    | Var v -> Hashtbl.find env v
    | Add (a, b) -> eval a +. eval b
    | Mul (a, b) -> eval a *. eval b
  in
  let buf = Buffer.create 64 in
  let acc = ref 0.0 and h = ref 0 in
  for i = 1 to loop_iters do
    acc := !acc +. eval (build 6 i);
    Buffer.clear buf;
    Buffer.add_string buf (string_of_int i);
    h := !h lxor Hashtbl.hash (Buffer.contents buf)
  done;
  Float.to_int !acc lxor !h

(* --------------------------- calibrator ---------------------------- *)

(* The loop runs on as many domains as the workload uses: the calling
   domain plus [domains - 1] helper domains owned by the calibrator (not
   the library's pool), parked between rounds. Within a round the
   helpers spin between passes, so only the first pass pays their
   wake-up. *)
type t = {
  domains : int;
  m : Mutex.t;
  go : Condition.t;
  mutable gen : int; (* rounds posted, under [m] *)
  mutable stop : bool;
  pass : int Atomic.t; (* passes started in the current round *)
  arrived : int Atomic.t; (* helper passes finished in the current round *)
  mutable helpers : unit Domain.t list;
  mutable samples : float list; (* every round's seconds, newest first *)
}

let passes = 3
let sink = Atomic.make 0

let helper t =
  let seen = ref 0 in
  let rec wait () =
    Mutex.lock t.m;
    while t.gen = !seen && not t.stop do
      Condition.wait t.go t.m
    done;
    let stop = t.stop in
    seen := t.gen;
    Mutex.unlock t.m;
    if not stop then begin
      for k = 1 to passes do
        while Atomic.get t.pass < k do
          Domain.cpu_relax ()
        done;
        Atomic.set sink (loop ());
        Atomic.incr t.arrived
      done;
      wait ()
    end
  in
  wait ()

let create ~domains =
  let t =
    { domains = max 1 domains; m = Mutex.create (); go = Condition.create (); gen = 0;
      stop = false; pass = Atomic.make 0; arrived = Atomic.make 0; helpers = [];
      samples = [] }
  in
  t.helpers <- List.init (t.domains - 1) (fun _ -> Domain.spawn (fun () -> helper t));
  t

(** One calibration round: three passes of the loop on every calibrator
    domain at once, read as three times the median pass, so that a pause
    inside one pass (a GC slice, a preemption, the helpers' wake-up)
    does not read as a slow host. Records and returns the round's
    seconds. *)
let round t =
  let helpers = t.domains - 1 in
  Atomic.set t.pass 0;
  Atomic.set t.arrived 0;
  Mutex.lock t.m;
  t.gen <- t.gen + 1;
  Condition.broadcast t.go;
  Mutex.unlock t.m;
  let pass k =
    let t0 = now () in
    Atomic.set t.pass k;
    Atomic.set sink (loop ());
    while Atomic.get t.arrived < k * helpers do
      Domain.cpu_relax ()
    done;
    now () -. t0
  in
  let a = pass 1 in
  let b = pass 2 in
  let c = pass 3 in
  let dt = 3.0 *. Float.max (Float.min a b) (Float.min (Float.max a b) c) in
  t.samples <- dt :: t.samples;
  dt

let shutdown t =
  Mutex.lock t.m;
  t.stop <- true;
  Condition.broadcast t.go;
  Mutex.unlock t.m;
  List.iter Domain.join t.helpers;
  t.helpers <- []

(* ------------------------- calibrated timing ----------------------- *)

(** [calibrated ~ref_s ~c0 ~c1 wall]: the wall time rescaled to the
    reference host speed, judged by the calibration rounds on either
    side of it. A slow-down that stretches the work and the loop alike
    cancels out. *)
let calibrated ~ref_s ~c0 ~c1 wall = wall *. ref_s /. ((c0 +. c1) /. 2.0)

(* Re-calibrate once this much measured wall time has passed, so that a
   speed change (lasting 0.1 s to 1 s on the hosts measured) is seen
   next to the work it slowed. *)
let window_s = 0.04

type segment = { wall : float; cal : float }

(** A run of measured calls with calibration rounds interleaved: one
    before the first call, one whenever [window_s] of measured time has
    accumulated since the last round, and one at {!finish}. Each call is
    calibrated by the rounds on either side of it. Work done between
    {!measure} calls (output checks) is not measured. *)
type meter = {
  calibrator : t;
  ref_s : float;
  mutable c_prev : float;
  mutable since : float;
  mutable pending : float list; (* walls awaiting their closing round *)
  mutable segs : segment list; (* newest first *)
}

let meter calibrator ~ref_s =
  { calibrator; ref_s; c_prev = round calibrator; since = 0.0; pending = []; segs = [] }

let close m =
  let c1 = round m.calibrator in
  List.iter
    (fun wall ->
      m.segs <- { wall; cal = calibrated ~ref_s:m.ref_s ~c0:m.c_prev ~c1 wall } :: m.segs)
    (List.rev m.pending);
  m.pending <- [];
  m.c_prev <- c1;
  m.since <- 0.0

(** Time [f ()]. A call that raises is recorded too, then re-raised. *)
let measure m f =
  let t0 = now () in
  let record () =
    let wall = now () -. t0 in
    m.pending <- wall :: m.pending;
    m.since <- m.since +. wall;
    if m.since >= window_s then close m
  in
  match f () with
  | r ->
    record ();
    r
  | exception e ->
    record ();
    raise e

(** Close the last window; every measured call's segment, in order. *)
let finish m =
  if m.pending <> [] then close m;
  List.rev m.segs

(* ----------------------------- statistics -------------------------- *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(** Nearest-rank percentile [p] (0 < p < 1) of [xs], withheld ([None])
    unless at least [min_beyond] samples lie strictly above its rank:
    a tail percentile read from fewer samples is one outlier. *)
let percentile ?(min_beyond = 10) p xs =
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p *. Float.of_int n)) in
  if n = 0 || rank < 1 || n - rank < min_beyond then None else Some a.(rank - 1)

(** Smallest op count at which {!percentile} [p] is reported. *)
let min_samples ?(min_beyond = 10) p =
  let rec go n =
    if n - int_of_float (Float.ceil (p *. Float.of_int n)) >= min_beyond then n
    else go (n + 1)
  in
  go 1

(** Interquartile range over the median, as Python's
    [statistics.quantiles(xs, n=4)] (exclusive method) computes it. *)
let spread xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then 0.0
  else
    let q k =
      let m = Float.of_int (n + 1) *. Float.of_int k /. 4.0 in
      let j = max 1 (min (n - 1) (int_of_float (Float.floor m))) in
      let delta = m -. Float.of_int j in
      a.(j - 1) +. ((a.(j) -. a.(j - 1)) *. delta)
    in
    (q 3 -. q 1) /. median xs

let geomean = function
  | [] -> nan
  | xs ->
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. Float.of_int (List.length xs))
