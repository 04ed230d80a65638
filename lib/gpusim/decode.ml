(** Decode-once execution engine: closure-compiled instruction streams
    over typed register planes.

    The reference semantics of the ISA is a tree-walking interpreter,
    kept test-only as the differential oracle ([test/oracle.ml]): its
    [Oracle.step] re-matches the [Isa.instr] variant on every retired
    instruction, re-resolves operand kinds, boxes every scalar in a
    {!Sim.rt} variant, hashes SMEM slots, and recomputes tile costs
    from the config. This module
    translates each stream ONCE into an array of OCaml closures
    ([code = wg -> unit]; a unit reaches its CTA through the WG) with
    everything static folded at decode time:

    - immediates become captured constants; operand accessors are
      pre-resolved per kind (no [value_of] dispatch at run time);
    - the register file is split into typed planes — [int array],
      [float array], [Bytes] bools, and a tensor/descriptor object
      plane — with a tag byte per register, so scalar traffic never
      allocates;
    - tile costs, byte counts, wgmma durations' static factors, and
      SMEM slot bases are pre-computed;
    - the [(alloc, slot)] Hashtbl becomes a dense array indexed by
      [alloc_base + slot] (with a Hashtbl fallback for out-of-range
      slots so hand-built programs keep reference semantics).

    Blocked warp groups register on the mbarrier/ring they wait on and
    are re-enqueued by {!Mbarrier.arrive} via the barrier's notify
    hook; the scheduler is a binary heap of WG indices keyed
    [(time, index)] (see {!Engine}), which reproduces the reference
    scheduler's min-time/lowest-index selection exactly.

    Everything here must stay BIT-IDENTICAL to the oracle — same float
    expression shapes, same evaluation order, same error messages. The
    differential suite ([test/test_engine.ml]) enforces this across
    the example/frontend/fuzz corpus; when changing the semantics of
    an instruction, change both. "The reference" below always means
    that oracle. *)

open Tawa_tensor
open Tawa_ir
open Tawa_machine

let err fmt = Format.kasprintf (fun s -> raise (Sim.Sim_error s)) fmt

(* Stall buckets — same indices and charging points as the reference
   (see the constants atop test/oracle.ml). *)
let b_compute = Tawa_obs.Stall.compute
let b_tma = Tawa_obs.Stall.tma
let b_tc = Tawa_obs.Stall.tensorcore
let b_mbar = Tawa_obs.Stall.mbar_wait
let b_ring = Tawa_obs.Stall.ring_wait
let b_fence = Tawa_obs.Stall.fence_wait

(* ----------------------- typed register planes -------------------- *)

(* Tag byte per register selecting the authoritative plane. Registers
   default to tag 0 / int 0, matching the reference file's [Rint 0]
   fill. *)
let t_int = '\000'
let t_float = '\001'
let t_bool = '\002'
let t_tensor = '\003'
let t_desc = '\004'
let t_none = '\005'

type objv = Onone | Otensor of Tensor.t | Odesc of Sim.desc

(* [owned.[r] <> '\000'] (with a tensor tag) means register [r]'s tile
   was allocated by a payload op and no other register, SMEM slot or
   descriptor can see it, so a payload op writing [r] may overwrite it
   in place. Every path that lets a tile escape clears the byte. *)
type planes = {
  mutable cap : int;
  mutable tags : Bytes.t;
  mutable ints : int array;
  mutable floats : float array;
  mutable bools : Bytes.t;
  mutable objs : objv array;
  mutable owned : Bytes.t;
}

let make_planes n =
  let n = max 1 n in
  {
    cap = n;
    tags = Bytes.make n t_int;
    ints = Array.make n 0;
    floats = Array.make n 0.0;
    bools = Bytes.make n '\000';
    objs = Array.make n Onone;
    owned = Bytes.make n '\000';
  }

(* Grow all planes to cover register [r]; fresh registers read as
   int 0, like the reference file's growth fill. *)
let grow p r =
  let cap = max (2 * p.cap) (r + 1) in
  let tags = Bytes.make cap t_int in
  Bytes.blit p.tags 0 tags 0 p.cap;
  let ints = Array.make cap 0 in
  Array.blit p.ints 0 ints 0 p.cap;
  let floats = Array.make cap 0.0 in
  Array.blit p.floats 0 floats 0 p.cap;
  let bools = Bytes.make cap '\000' in
  Bytes.blit p.bools 0 bools 0 p.cap;
  let objs = Array.make cap Onone in
  Array.blit p.objs 0 objs 0 p.cap;
  let owned = Bytes.make cap '\000' in
  Bytes.blit p.owned 0 owned 0 p.cap;
  p.owned <- owned;
  p.cap <- cap;
  p.tags <- tags;
  p.ints <- ints;
  p.floats <- floats;
  p.bools <- bools;
  p.objs <- objs

let tag_of p r = if r < p.cap then Bytes.get p.tags r else t_int

let set_int p r v =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_int;
  p.ints.(r) <- v

let set_float p r v =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_float;
  p.floats.(r) <- v

let set_bool p r v =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_bool;
  Bytes.set p.bools r (if v then '\001' else '\000')

(* A tile others may see: the register does not own it. *)
let set_tensor p r t =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_tensor;
  Bytes.set p.owned r '\000';
  p.objs.(r) <- Otensor t

(* A tile only this register sees: a payload op's result. *)
let set_owned p r t =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_tensor;
  Bytes.set p.owned r '\001';
  p.objs.(r) <- Otensor t

let disown p r = if r < p.cap then Bytes.set p.owned r '\000'

(* The tile register [r] owns, which a payload op writing [r] may
   overwrite ({!Tensor.reuse} checks its dtype and shape). *)
let owned_tile p r =
  if r < p.cap && Bytes.get p.owned r <> '\000' && Bytes.get p.tags r = t_tensor then
    match p.objs.(r) with Otensor t -> Some t | _ -> None
  else None

let set_desc p r d =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_desc;
  p.objs.(r) <- Odesc d

let set_none p r =
  if r >= p.cap then grow p r;
  Bytes.set p.tags r t_none

(* Reads beyond capacity see the default register value (int 0), like
   [Oracle.reg_read]. The coercions mirror [as_int]/[as_float]/[as_bool]
   exactly, error messages included. *)

let get_int p r =
  if r >= p.cap then 0
  else
    match Bytes.get p.tags r with
    | '\000' -> p.ints.(r)
    | '\001' -> int_of_float p.floats.(r)
    | '\002' -> if Bytes.get p.bools r <> '\000' then 1 else 0
    | _ -> err "sim: expected integer operand"

let get_float p r =
  if r >= p.cap then 0.0
  else
    match Bytes.get p.tags r with
    | '\001' -> p.floats.(r)
    | '\000' -> Float.of_int p.ints.(r)
    | '\002' -> if Bytes.get p.bools r <> '\000' then 1.0 else 0.0
    | _ -> err "sim: expected float operand"

let get_bool p r =
  if r >= p.cap then false
  else
    match Bytes.get p.tags r with
    | '\002' -> Bytes.get p.bools r <> '\000'
    | '\000' -> p.ints.(r) <> 0
    | '\001' -> p.floats.(r) <> 0.0
    | _ -> err "sim: expected predicate operand"

let get_tensor p r =
  if r < p.cap && Bytes.get p.tags r = t_tensor then
    match p.objs.(r) with Otensor t -> t | _ -> err "sim: expected tensor operand"
  else err "sim: expected tensor operand"

let get_desc p r =
  if r < p.cap && Bytes.get p.tags r = t_desc then
    match p.objs.(r) with Odesc d -> d | _ -> err "sim: expected descriptor operand"
  else err "sim: expected descriptor operand"

(* Boxed view of a register, for [Mov]-style generic copies done
   planewise ({!copy_reg}) and for the property tests' oracle. *)
let get_rt p r : Sim.rt =
  if r >= p.cap then Sim.Rint 0
  else
    match Bytes.get p.tags r with
    | '\000' -> Sim.Rint p.ints.(r)
    | '\001' -> Sim.Rfloat p.floats.(r)
    | '\002' -> Sim.Rbool (Bytes.get p.bools r <> '\000')
    | '\003' -> (
      match p.objs.(r) with Otensor t -> Sim.Rtensor t | _ -> Sim.Rnone)
    | '\004' -> (
      match p.objs.(r) with Odesc d -> Sim.Rdesc d | _ -> Sim.Rnone)
    | _ -> Sim.Rnone

let set_rt p r (v : Sim.rt) =
  match v with
  | Sim.Rint i -> set_int p r i
  | Sim.Rfloat f -> set_float p r f
  | Sim.Rbool b -> set_bool p r b
  | Sim.Rtensor t -> set_tensor p r t
  | Sim.Rdesc d -> set_desc p r d
  | Sim.Rnone -> set_none p r

(* Register-to-register copy without boxing: copy the source's
   authoritative plane cell and its tag. A copied tile is shared, so
   neither register owns it. *)
let copy_reg p ~src ~dst =
  if src >= p.cap then set_int p dst 0
  else begin
    if dst >= p.cap then grow p dst;
    let tag = Bytes.get p.tags src in
    (match tag with
    | '\000' -> p.ints.(dst) <- p.ints.(src)
    | '\001' -> p.floats.(dst) <- p.floats.(src)
    | '\002' -> Bytes.set p.bools dst (Bytes.get p.bools src)
    | _ -> p.objs.(dst) <- p.objs.(src));
    Bytes.set p.owned src '\000';
    Bytes.set p.owned dst '\000';
    Bytes.set p.tags dst tag
  end

(* ------------------------ execution context ----------------------- *)

(* Hot per-WG clocks, split into an all-float record so the fields are
   flat (unboxed): [spend] runs once per retired instruction, and a
   boxed [mutable float] in the mixed [wg] record would allocate on
   every update. *)
type clk = {
  mutable t : float; (* the WG's clock *)
  mutable busy : float; (* non-stalled cycles *)
  mutable wopen : float; (* completion of the latest uncommitted wgmma *)
}

(* Growable float ring buffer for committed-but-unwaited wgmma group
   completion times (a [float Queue.t] boxes every element). *)
type fring = {
  mutable fbuf : float array;
  mutable fhead : int;
  mutable flen : int;
}

let fring_create () = { fbuf = Array.make 8 0.0; fhead = 0; flen = 0 }

let fring_push r v =
  let cap = Array.length r.fbuf in
  if r.flen >= cap then begin
    let bigger = Array.make (2 * cap) 0.0 in
    for i = 0 to r.flen - 1 do
      bigger.(i) <- r.fbuf.((r.fhead + i) mod cap)
    done;
    r.fbuf <- bigger;
    r.fhead <- 0
  end;
  r.fbuf.((r.fhead + r.flen) mod Array.length r.fbuf) <- v;
  r.flen <- r.flen + 1

let fring_pop r =
  let v = r.fbuf.(r.fhead) in
  r.fhead <- (r.fhead + 1) mod Array.length r.fbuf;
  r.flen <- r.flen - 1;
  v

(* Shared pipe availability horizons and the run's float stats, flat
   for the same reason. The stats are summed here, in the order the
   units retire, and copied into the [Sim.stats] once when the run ends
   ({!Engine.run_decoded}): a float field of the mixed [Sim.stats]
   record would box on every update. *)
type pipes = {
  mutable tma_free : float;
  mutable tc_free : float;
  mutable tc_busy : float;
  mutable tma_busy : float;
  mutable tma_bytes : float;
}

(* Binary min-heap of runnable warp groups, by index into [ectx.wgs],
   keyed [(time, index)] — the reference scheduler's selection order.
   A WG's key is stable while enqueued: its clock only moves when it
   executes (popped) or when it is unblocked (pushed afterwards). Each
   WG is queued at most once, so the heap never outgrows the CTA. *)
type ready = { heap : int array; mutable n : int }

type wg = {
  index : int;
  role : Op.wg_role;
  x : ectx; (* the CTA this WG runs in, set once at creation *)
  code : code array;
  (* Unit metadata driving the scheduler loop ({!Engine.run_decoded}).
     [lens.(pc)] is how many source instructions the unit at [pc]
     retires (1 except for timing-mode cost blocks); [local] marks
     units that may retire inside an ongoing scheduler slot (timing
     mode only; all-zero otherwise). *)
  lens : int array;
  local : Bytes.t;
  mutable pc : int;
  c : clk;
  planes : planes;
  mutable state : Sim.wg_state;
  wgmma_groups : fring;
  mutable pop_round : int;
  mutable wg_pid : int array option;
  mutable instret : int;
  mutable in_ready : bool; (* membership flag for the ready heap *)
  buckets : float array; (* per-Stall-bucket cycle attribution *)
  cells : float array;
      (* per-(pc, bucket) attribution, mirroring [Oracle.wg.cells]:
         [Stall.num] entries per source instruction, row-major by pc.
         Empty for the probe scratch WG (cost probing must not
         attribute). *)
}

and ectx = {
  cfg : Config.t;
  mutable wgs : wg array; (* filled once, right after the context *)
  mutable pid : int array;
  num_programs : int array;
  mbars : Mbarrier.t array;
  rings : Mbarrier.t array;
  smem : Tensor.t option array; (* dense, indexed alloc_base + slot *)
  smem_base : int array;
  smem_slots : int array;
  smem_over : (int * int, Tensor.t) Hashtbl.t; (* out-of-range fallback *)
  pipes : pipes; (* shared TMA/TC pipe horizons and float stats *)
  mutable fence_waiters : int list;
  mutable popped : int array;
  mutable popped_len : int;
  pop_global : unit -> int;
  stats : Sim.stats;
  (* Blocked waiters per barrier, woken by the barrier's notify hook. *)
  mbar_waiters : (int * wg) list array;
  ring_waiters : (int * wg) list array;
  ready : ready;
  mbar_wait : float array; (* per-channel blocked time (excl. sync cost) *)
  ring_wait : float array;
  num_rings : int; (* program ring count; ring arrays are padded to >= 1 *)
  recorder : Tawa_obs.Prof.t option;
      (* deep-profiler event sink, mirroring [Oracle.cta.recorder]. Read at
         runtime by the compiled closures — never captured — so a
         recorder does not perturb the decode cache. *)
}

and code = wg -> unit

let new_wg x ~index ~role ~code ~lens ~local ~planes ~cells =
  {
    index;
    role;
    x;
    code;
    lens;
    local;
    pc = 0;
    c = { t = 0.0; busy = 0.0; wopen = -1.0 };
    planes;
    state = Sim.Running;
    wgmma_groups = fring_create ();
    pop_round = 0;
    wg_pid = None;
    instret = 0;
    in_ready = false;
    buckets = Array.make Tawa_obs.Stall.num 0.0;
    cells;
  }

(* A context for [nwgs] warp groups, which the caller creates with
   {!new_wg} and stores in [wgs]. [arrive_counts] gives each mbarrier's
   arrivals per phase. *)
let new_ctx ?recorder ~cfg ~nwgs ~pid ~num_programs ~pop_global ~arrive_counts
    ~num_rings ~smem_base ~smem_slots ~smem_total () =
  let nbars = max 1 (Array.length arrive_counts) and nrings = max 1 num_rings in
  {
    cfg;
    wgs = [||];
    pid;
    num_programs;
    mbars = Array.map (fun arrive_count -> Mbarrier.create ~arrive_count) arrive_counts;
    rings = Array.init nrings (fun _ -> Mbarrier.create ~arrive_count:1);
    smem = Array.make (max 1 smem_total) None;
    smem_base;
    smem_slots;
    smem_over = Hashtbl.create 8;
    pipes = { tma_free = 0.0; tc_free = 0.0; tc_busy = 0.0; tma_busy = 0.0; tma_bytes = 0.0 };
    fence_waiters = [];
    popped = Array.make 16 (-2);
    popped_len = 0;
    pop_global;
    stats =
      { Sim.tc_busy = 0.0; tma_busy = 0.0; tma_bytes = 0.0; wgmma_count = 0;
        tma_count = 0; steps = 0 };
    mbar_waiters = Array.make nbars [];
    ring_waiters = Array.make nrings [];
    ready = { heap = Array.make nwgs 0; n = 0 };
    mbar_wait = Array.make nbars 0.0;
    ring_wait = Array.make nrings 0.0;
    num_rings;
    recorder;
  }

let[@inline] before (wgs : wg array) i j =
  let a = wgs.(i).c.t and b = wgs.(j).c.t in
  a < b || (a = b && i < j)

(* Heap sifts move indices into a hole and write the moved entry once:
   int stores, no write barrier. *)
let ready_push w =
  if not w.in_ready then begin
    w.in_ready <- true;
    let q = w.x.ready and wgs = w.x.wgs in
    let h = q.heap in
    let i = ref q.n in
    q.n <- q.n + 1;
    while !i > 0 && before wgs w.index h.((!i - 1) / 2) do
      let parent = (!i - 1) / 2 in
      h.(!i) <- h.(parent);
      i := parent
    done;
    h.(!i) <- w.index
  end

(* Pop the earliest ready WG; requires [ctx.ready.n > 0] (the
   scheduler checks emptiness first to keep the hot path option-free). *)
let ready_pop_exn ctx =
  let q = ctx.ready and wgs = ctx.wgs in
  let h = q.heap in
  let top = h.(0) in
  let n = q.n - 1 in
  q.n <- n;
  if n > 0 then begin
    let last = h.(n) in
    let i = ref 0 and continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 in
      let c = if l + 1 < n && before wgs h.(l + 1) h.(l) then l + 1 else l in
      if c < n && before wgs h.(c) last then begin
        h.(!i) <- h.(c);
        i := c
      end
      else continue := false
    done;
    h.(!i) <- last
  end;
  let w = wgs.(top) in
  w.in_ready <- false;
  w

(* ------------------------------ SMEM ------------------------------ *)

let smem_set ctx alloc slot t =
  if
    alloc >= 0
    && alloc < Array.length ctx.smem_slots
    && slot >= 0
    && slot < ctx.smem_slots.(alloc)
  then ctx.smem.(ctx.smem_base.(alloc) + slot) <- Some t
  else Hashtbl.replace ctx.smem_over (alloc, slot) t

let smem_get ctx alloc slot =
  if
    alloc >= 0
    && alloc < Array.length ctx.smem_slots
    && slot >= 0
    && slot < ctx.smem_slots.(alloc)
  then
    match ctx.smem.(ctx.smem_base.(alloc) + slot) with
    | Some t -> t
    | None -> err "sim: read of unwritten SMEM slot (alloc %d slot %d)" alloc slot
  else
    match Hashtbl.find_opt ctx.smem_over (alloc, slot) with
    | Some t -> t
    | None -> err "sim: read of unwritten SMEM slot (alloc %d slot %d)" alloc slot

(* ------------------------- event wake-ups ------------------------- *)

(* Per-(pc, bucket) attribution mirror of [Oracle.charge_cell]. Bounds
   guard covers the probe scratch WG (empty cells) — real WGs always
   charge in range because the pc points at the consuming instruction. *)
let[@inline] charge_cell w b c =
  let o = (w.pc * Tawa_obs.Stall.num) + b in
  if o >= 0 && o < Array.length w.cells then w.cells.(o) <- w.cells.(o) +. c

let[@inline] spend w b c =
  w.c.t <- w.c.t +. c;
  w.c.busy <- w.c.busy +. c;
  w.buckets.(b) <- w.buckets.(b) +. c;
  charge_cell w b c

(* Blocked-time jump attribution; same guard as [Oracle.stalled]. *)
let stalled w b dt =
  if dt > 0.0 then begin
    w.buckets.(b) <- w.buckets.(b) +. dt;
    charge_cell w b dt
  end

(* [Float.max] with the ordered cases inline: bit-identical, and only
   ties and NaNs reach its [sign_bit] calls. *)
let[@inline] fmax x y = if x > y then x else if y > x then y else Float.max x y

(* {!Mbarrier.completions}, [completion_time] (for [n] at most the
   completions so far) and [note_consumed], for the hot paths: calls
   across modules are not inlined. *)
let[@inline] completed (b : Mbarrier.t) = b.Mbarrier.num_completions
let[@inline] completion_at (b : Mbarrier.t) n = if n <= 0 then 0.0 else b.Mbarrier.completions.(n - 1)

let[@inline] consume (b : Mbarrier.t) target =
  if target > b.Mbarrier.consumed then b.Mbarrier.consumed <- target

(* ----------- deep-profiler recording (mirrors the oracle's) ----------- *)

let ring_chan ctx r = Array.length ctx.mbars + r

let rec_completion w chan (b : Mbarrier.t) completed =
  match w.x.recorder with
  | Some r when completed ->
    let n = Mbarrier.completions b in
    Tawa_obs.Prof.record_completion r ~chan ~n
      ~time:(Mbarrier.completion_time b n) ~wg:w.index ~pc:w.pc ~issue:w.c.t
  | _ -> ()

let rec_wait w chan ~target ~start ~ready =
  match w.x.recorder with
  | Some r ->
    Tawa_obs.Prof.record_wait r ~chan ~wg:w.index ~pc:w.pc ~target ~start
      ~ready ~resume:w.c.t
  | None -> ()

let rec_op w ~pc ~t0 =
  match w.x.recorder with
  | Some r when w.c.t > t0 ->
    Tawa_obs.Prof.record_op r ~wg:w.index ~pc ~t0 ~t1:w.c.t
  | _ -> ()

(* Wake a waiter of channel [chan] whose [target] is now satisfied,
   with the channel's sync cost [sync] and its blocked-time array
   [waits] at [i]. The unblock arithmetic matches [Oracle.try_unblock]
   exactly: the recorded completion time and the waiter's frozen clock
   fully determine the wake time, so waking eagerly at arrival is
   bit-identical to the reference's rescan-every-iteration. *)
let wake_one ~bucket ~sync ~waits ~chan i bar target w =
  let ct = completion_at bar target in
  let t0 = w.c.t in
  let m = fmax t0 ct in
  let nt = m +. sync in
  stalled w bucket (nt -. t0);
  waits.(i) <- waits.(i) +. fmax 0.0 (m -. t0);
  consume bar target;
  w.c.t <- nt;
  rec_wait w chan ~target ~start:t0 ~ready:ct;
  rec_op w ~pc:w.pc ~t0;
  w.state <- Sim.Running;
  w.pc <- w.pc + 1;
  ready_push w

(* Wake every waiter in [waiters.(i)] whose target is now satisfied. *)
let wake ~bucket ~sync ~waits ~chan waiters i bar =
  match waiters.(i) with
  | [] -> ()
  (* The overwhelmingly common case — one blocked consumer — skips the
     [List.filter] closure and list rebuild. *)
  | [ (target, w) ] ->
    if completed bar >= target then begin
      waiters.(i) <- [];
      wake_one ~bucket ~sync ~waits ~chan i bar target w
    end
  | ws ->
    let have = completed bar in
    waiters.(i) <-
      List.filter
        (fun (target, w) ->
          if have >= target then begin
            wake_one ~bucket ~sync ~waits ~chan i bar target w;
            false
          end
          else true)
        ws

let wake_mbar ctx i bar =
  wake ~bucket:b_mbar ~sync:ctx.cfg.Config.mbar_cycles ~waits:ctx.mbar_wait ~chan:i
    ctx.mbar_waiters i bar

let wake_ring ctx i ring =
  wake ~bucket:b_ring ~sync:ctx.cfg.Config.scalar_cycles ~waits:ctx.ring_wait
    ~chan:(ring_chan ctx i) ctx.ring_waiters i ring

(* A wait on [bar] for [tgt] completions that the completions so far
   satisfy ([Mbarrier.try_wait] unrolled to avoid boxing the option):
   time-warp to the completion, then pay the sync cost [sync]. *)
let satisfied_wait w ~bucket ~sync ~waits ~chan i bar tgt =
  let t = completion_at bar tgt in
  let t0 = w.c.t in
  let m = fmax t0 t in
  let wait = m -. t0 in
  stalled w bucket wait;
  waits.(i) <- waits.(i) +. fmax 0.0 wait;
  consume bar tgt;
  w.c.t <- m;
  spend w bucket sync;
  rec_wait w chan ~target:tgt ~start:t0 ~ready:t;
  w.pc <- w.pc + 1

(* Mirror of [Oracle.release_fences], plus re-enqueueing the released
   waiters. Checked on [Fence] arrival and on [Exit]. *)
let release_fences ctx =
  if ctx.fence_waiters <> [] then begin
    let live =
      Array.fold_left
        (fun n w -> if w.state <> Sim.Finished then n + 1 else n)
        0 ctx.wgs
    in
    if List.length ctx.fence_waiters >= live then begin
      let tmax =
        List.fold_left
          (fun acc i -> Float.max acc ctx.wgs.(i).c.t)
          0.0 ctx.fence_waiters
      in
      List.iter
        (fun i ->
          let w = ctx.wgs.(i) in
          let nt = tmax +. ctx.cfg.Config.fence_cycles in
          let t0 = w.c.t in
          stalled w b_fence (nt -. w.c.t);
          w.c.t <- nt;
          rec_op w ~pc:w.pc ~t0;
          w.state <- Sim.Running;
          w.pc <- w.pc + 1;
          ready_push w)
        ctx.fence_waiters;
      ctx.fence_waiters <- []
    end
  end

(* ----------------------- operand compilers ------------------------ *)

(* Pre-resolve an operand to a closure per coercion; immediates fold
   to captured constants (the coercion applied once, at decode). *)

let iget (o : Isa.operand) : planes -> int =
  match o with
  | Isa.Imm i -> fun _ -> i
  | Isa.Fimm f ->
    let i = int_of_float f in
    fun _ -> i
  | Isa.Reg r -> fun p -> get_int p r

let fget (o : Isa.operand) : planes -> float =
  match o with
  | Isa.Imm i ->
    let f = Float.of_int i in
    fun _ -> f
  | Isa.Fimm f -> fun _ -> f
  | Isa.Reg r -> fun p -> get_float p r

let bget (o : Isa.operand) : planes -> bool =
  match o with
  | Isa.Imm i ->
    let b = i <> 0 in
    fun _ -> b
  | Isa.Fimm f ->
    let b = f <> 0.0 in
    fun _ -> b
  | Isa.Reg r -> fun p -> get_bool p r

let tget (o : Isa.operand) : planes -> Tensor.t =
  match o with
  | Isa.Reg r -> fun p -> get_tensor p r
  | Isa.Imm _ | Isa.Fimm _ -> fun _ -> err "sim: expected tensor operand"

let dget (o : Isa.operand) : planes -> Sim.desc =
  match o with
  | Isa.Reg r -> fun p -> get_desc p r
  | Isa.Imm _ | Isa.Fimm _ -> fun _ -> err "sim: expected descriptor operand"

(* Operand kind for the ALU/Cmp dispatch: immediates are static. *)
let kget (o : Isa.operand) : planes -> char =
  match o with
  | Isa.Imm _ -> fun _ -> t_int
  | Isa.Fimm _ -> fun _ -> t_float
  | Isa.Reg r -> fun p -> tag_of p r

(* [scalar_cmp]'s float coercion admits bools (1.0/0.0) where
   [as_float] would too, but errs with the reference's terse "cmp". *)
let cget (o : Isa.operand) : planes -> float =
  match o with
  | Isa.Imm i ->
    let f = Float.of_int i in
    fun _ -> f
  | Isa.Fimm f -> fun _ -> f
  | Isa.Reg r -> (
    fun p ->
      if r >= p.cap then 0.0
      else
        match Bytes.get p.tags r with
        | '\001' -> p.floats.(r)
        | '\000' -> Float.of_int p.ints.(r)
        | '\002' -> if Bytes.get p.bools r <> '\000' then 1.0 else 0.0
        | _ -> err "cmp")

(* Inline form of [cget]'s register path, for registers statically
   below the planes' floor capacity (tag already read). *)
let[@inline] cmp_coerce p r t =
  if t = t_float then p.floats.(r)
  else if t = t_int then Float.of_int p.ints.(r)
  else if t = t_bool then if Bytes.get p.bools r <> '\000' then 1.0 else 0.0
  else err "cmp"

(* Inline form of [get_bool]'s register path under the same floor-
   capacity precondition; same coercions and error string. *)
let[@inline] bool_at p r =
  match Bytes.unsafe_get p.tags r with
  | '\002' -> Bytes.get p.bools r <> '\000'
  | '\000' -> p.ints.(r) <> 0
  | '\001' -> p.floats.(r) <> 0.0
  | _ -> err "sim: expected predicate operand"

(* Generic-value put (Mov/Sel): immediates fold to a typed store, a
   register source is a planewise copy. *)
let put_of (dst : Isa.reg) (o : Isa.operand) : planes -> unit =
  match o with
  | Isa.Imm i -> fun p -> set_int p dst i
  | Isa.Fimm f -> fun p -> set_float p dst f
  | Isa.Reg r -> fun p -> copy_reg p ~src:r ~dst

(* Integer ALU semantics, dispatched inline by each closure; [Min]
   and [Max] are [Stdlib.min]/[max] at type int. *)
let[@inline] int_op (op : Op.binop) (x : int) (y : int) =
  match op with
  | Op.Add -> x + y
  | Op.Sub -> x - y
  | Op.Mul -> x * y
  | Op.Div -> if y = 0 then err "sim: div by zero" else x / y
  | Op.Rem -> if y = 0 then err "sim: rem by zero" else x mod y
  | Op.Min -> if x <= y then x else y
  | Op.Max -> if x >= y then x else y
  | Op.And -> x land y
  | Op.Or -> x lor y
  | Op.Xor -> x lxor y

(* [Interp.cmp_pred] at types int and float: the same results, NaN
   included, without the polymorphic compare. *)
let[@inline] cmp_int (op : Op.cmp) (x : int) (y : int) =
  match op with
  | Op.Eq -> x = y | Op.Ne -> x <> y | Op.Lt -> x < y
  | Op.Le -> x <= y | Op.Gt -> x > y | Op.Ge -> x >= y

let[@inline] cmp_float (op : Op.cmp) (x : float) (y : float) =
  match op with
  | Op.Eq -> x = y | Op.Ne -> x <> y | Op.Lt -> x < y
  | Op.Le -> x <= y | Op.Gt -> x > y | Op.Ge -> x >= y

(* Offset operands: the reference reads [List.nth offs 0] and, when
   present, [List.nth offs 1] (extra dims ignored). An empty list
   fails at run time like [List.nth] would — only reachable in
   functional closures, as in the reference. *)
let compile_offs (offs : Isa.operand list) =
  match offs with
  | o0 :: rest ->
    let i0 = iget o0 in
    let i1 = match rest with o1 :: _ -> iget o1 | [] -> fun _ -> 0 in
    (i0, i1)
  | [] -> ((fun _ -> failwith "nth"), fun _ -> 0)

(* --------------------- instruction compilation -------------------- *)

(* A tile op of [c] compute cycles. Functional mode gives [dst] the
   tile [payload p into] returns, where [into] is the tile [dst] owns,
   which the payload kernel may overwrite; timing mode writes none. *)
let tile_op ~functional ~dst c (payload : planes -> Tensor.t option -> Tensor.t) : code =
  if functional then
    fun w ->
      spend w b_compute c;
      let p = w.planes in
      set_owned p dst (payload p (owned_tile p dst));
      w.pc <- w.pc + 1
  else
    fun w ->
      spend w b_compute c;
      set_none w.planes dst;
      w.pc <- w.pc + 1

let compile_instr ~(cfg : Config.t) ~coop ~reset_mask (i : Isa.instr) : code =
  let functional = Config.is_functional cfg in
  let sc = cfg.Config.scalar_cycles in
  let tile_cost ~elems ~per_cycle = Sim.tile_cost cfg coop ~elems ~per_cycle in
  let cuda elems = tile_cost ~elems ~per_cycle:cfg.Config.cuda_elems_per_cycle in
  match i with
  | Isa.Nop ->
    fun w ->
      spend w b_compute 1.0;
      w.pc <- w.pc + 1
  | Isa.Alu { op; dst; a; b } -> (
    let fop = Interp.float_binop op in
    match (a, b) with
    (* Monolithic arm for the hot register/register shape: real WG
       planes start at capacity 64 and only grow ({!make_ctx}), so for
       registers < 64 the tag/plane reads need no capacity guard and
       the generic operand-getter closures collapse to direct loads.
       Dispatch, coercions, and error strings mirror the generic path
       (and thus [Oracle.step]) exactly. *)
    | Isa.Reg ra, Isa.Reg rb when ra < 64 && rb < 64 && dst < 64 ->
      fun w ->
        let p = w.planes in
        let ta = Bytes.unsafe_get p.tags ra
        and tb = Bytes.unsafe_get p.tags rb in
        (if ta = t_int && tb = t_int then begin
           Bytes.unsafe_set p.tags dst t_int;
           p.ints.(dst) <- int_op op p.ints.(ra) p.ints.(rb)
         end
         else if ta <= t_float && tb <= t_float then begin
           let fa =
             if ta = t_float then p.floats.(ra) else Float.of_int p.ints.(ra)
           and fb =
             if tb = t_float then p.floats.(rb) else Float.of_int p.ints.(rb)
           in
           Bytes.unsafe_set p.tags dst t_float;
           p.floats.(dst) <- fop fa fb
         end
         else err "sim: bad ALU operands");
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | Isa.Reg ra, Isa.Imm ib when ra < 64 && dst < 64 ->
      let fb = Float.of_int ib in
      fun w ->
        let p = w.planes in
        let ta = Bytes.unsafe_get p.tags ra in
        (if ta = t_int then begin
           Bytes.unsafe_set p.tags dst t_int;
           p.ints.(dst) <- int_op op p.ints.(ra) ib
         end
         else if ta = t_float then begin
           Bytes.unsafe_set p.tags dst t_float;
           p.floats.(dst) <- fop p.floats.(ra) fb
         end
         else err "sim: bad ALU operands");
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | _ ->
      let ka = kget a and kb = kget b in
      let ia = iget a and ib = iget b in
      let fa = fget a and fb = fget b in
      fun w ->
        let p = w.planes in
        let ta = ka p and tb = kb p in
        (if ta = t_int && tb = t_int then set_int p dst (int_op op (ia p) (ib p))
         else if ta <= t_float && tb <= t_float then
           set_float p dst (fop (fa p) (fb p))
         else err "sim: bad ALU operands");
        spend w b_compute sc;
        w.pc <- w.pc + 1)
  | Isa.Cmp { op; dst; a; b } -> (
    match (a, b) with
    | Isa.Reg ra, Isa.Reg rb when ra < 64 && rb < 64 && dst < 64 ->
      fun w ->
        let p = w.planes in
        let ta = Bytes.unsafe_get p.tags ra
        and tb = Bytes.unsafe_get p.tags rb in
        let v =
          if ta = t_int && tb = t_int then cmp_int op p.ints.(ra) p.ints.(rb)
          else cmp_float op (cmp_coerce p ra ta) (cmp_coerce p rb tb)
        in
        Bytes.unsafe_set p.tags dst t_bool;
        Bytes.unsafe_set p.bools dst (if v then '\001' else '\000');
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | Isa.Reg ra, Isa.Imm ib when ra < 64 && dst < 64 ->
      let fb = Float.of_int ib in
      fun w ->
        let p = w.planes in
        let ta = Bytes.unsafe_get p.tags ra in
        let v =
          if ta = t_int then cmp_int op p.ints.(ra) ib
          else cmp_float op (cmp_coerce p ra ta) fb
        in
        Bytes.unsafe_set p.tags dst t_bool;
        Bytes.unsafe_set p.bools dst (if v then '\001' else '\000');
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | _ ->
      let ka = kget a and kb = kget b in
      let ia = iget a and ib = iget b in
      let ca = cget a and cb = cget b in
      fun w ->
        let p = w.planes in
        (if ka p = t_int && kb p = t_int then
           set_bool p dst (cmp_int op (ia p) (ib p))
         else set_bool p dst (cmp_float op (ca p) (cb p)));
        spend w b_compute sc;
        w.pc <- w.pc + 1)
  | Isa.Mov { dst; src } -> (
    match src with
    | Isa.Imm i ->
      fun w ->
        set_int w.planes dst i;
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | Isa.Fimm f ->
      fun w ->
        set_float w.planes dst f;
        spend w b_compute sc;
        w.pc <- w.pc + 1
    | Isa.Reg r ->
      fun w ->
        copy_reg w.planes ~src:r ~dst;
        spend w b_compute sc;
        w.pc <- w.pc + 1)
  | Isa.Sel { dst; cond; a; b } ->
    let bc = bget cond in
    let put_a = put_of dst a and put_b = put_of dst b in
    fun w ->
      let p = w.planes in
      if bc p then put_a p else put_b p;
      spend w b_compute sc;
      w.pc <- w.pc + 1
  | Isa.Pid { dst; axis } ->
    fun w ->
      let ctx = w.x in
      let pid = match w.wg_pid with Some p -> p | None -> ctx.pid in
      set_int w.planes dst pid.(axis);
      spend w b_compute sc;
      w.pc <- w.pc + 1
  | Isa.Npid { dst; axis } ->
    fun w ->
      let ctx = w.x in
      set_int w.planes dst ctx.num_programs.(axis);
      spend w b_compute sc;
      w.pc <- w.pc + 1
  | Isa.Mkdesc { dst; ptr; dtype; _ } ->
    let read_ptr : planes -> Tensor.t option =
      match ptr with
      | Isa.Reg r -> (
        fun p ->
          if r >= p.cap then
            err "sim: descriptor pointer must bind a buffer (or Rnone in timing mode)"
          else
            match Bytes.get p.tags r with
            | '\003' -> (
              match p.objs.(r) with
              | Otensor t ->
                (* The descriptor now sees the tile. *)
                disown p r;
                Some t
              | _ ->
                err "sim: descriptor pointer must bind a buffer (or Rnone in timing mode)")
            | '\005' -> None
            | _ ->
              err "sim: descriptor pointer must bind a buffer (or Rnone in timing mode)")
      | Isa.Imm _ | Isa.Fimm _ ->
        fun _ ->
          err "sim: descriptor pointer must bind a buffer (or Rnone in timing mode)"
    in
    fun w ->
      let buffer = read_ptr w.planes in
      set_desc w.planes dst { Sim.buffer; ddtype = dtype };
      spend w b_compute 20.0;
      w.pc <- w.pc + 1
  | Isa.Tile_unop { op; dst; src; elems } ->
    let per_cycle =
      match op with
      | Op.Exp | Op.Exp2 | Op.Log | Op.Log2 | Op.Sqrt | Op.Rsqrt ->
        cfg.Config.sfu_elems_per_cycle
      | Op.Neg | Op.Abs | Op.Not -> cfg.Config.cuda_elems_per_cycle
    in
    let ts = tget src in
    tile_op ~functional ~dst (tile_cost ~elems ~per_cycle) (fun p into ->
        Interp.unop_tile ?into op (ts p))
  | Isa.Tile_binop { op; dst; a; b; elems } ->
    let ta = tget a and tb = tget b in
    tile_op ~functional ~dst (cuda elems) (fun p into ->
        Interp.binop_tile ?into op (ta p) (tb p))
  | Isa.Tile_cmp { op; dst; a; b; elems } ->
    let ta = tget a and tb = tget b in
    tile_op ~functional ~dst (cuda elems) (fun p _ -> Tensor.cmp (cmp_float op) (ta p) (tb p))
  | Isa.Tile_select { dst; cond; a; b; elems } ->
    let tc = tget cond and ta = tget a and tb = tget b in
    tile_op ~functional ~dst (cuda elems) (fun p _ -> Tensor.select (tc p) (ta p) (tb p))
  | Isa.Tile_cast { dst; src; dtype; elems } ->
    let ts = tget src in
    tile_op ~functional ~dst (cuda elems) (fun p into -> Tensor.cast ?into dtype (ts p))
  | Isa.Tile_splat { dst; src; shape; dtype } ->
    let elems = List.fold_left ( * ) 1 shape in
    let shape = Array.of_list shape and fs = fget src in
    tile_op ~functional ~dst (cuda elems) (fun p into ->
        let t = Tensor.reuse ?into ~dtype shape in
        Tensor.fill t (fs p);
        t)
  | Isa.Tile_iota { dst; n } ->
    tile_op ~functional ~dst (cuda n) (fun _ _ ->
        Tensor.init ~dtype:Dtype.I32 [| n |] (fun i -> Float.of_int i.(0)))
  | Isa.Tile_bcast { dst; src; shape } ->
    let ts = tget src in
    tile_op ~functional ~dst (cuda (List.fold_left ( * ) 1 shape)) (fun p into ->
        Interp.broadcast_to ?into (ts p) shape)
  | Isa.Tile_reshape { dst; src; shape } ->
    let shape = Array.of_list shape and ts = tget src in
    tile_op ~functional ~dst sc (fun p _ -> Tensor.reshape (ts p) shape)
  | Isa.Tile_reduce { kind; axis; dst; src; elems } ->
    let ts = tget src in
    tile_op ~functional ~dst
      (tile_cost ~elems ~per_cycle:cfg.Config.reduce_elems_per_cycle)
      (fun p _ -> Interp.reduce_tensor kind axis (ts p))
  | Isa.Tile_trans { dst; src; elems } ->
    let ts = tget src in
    tile_op ~functional ~dst
      (tile_cost ~elems ~per_cycle:cfg.Config.trans_elems_per_cycle)
      (fun p _ -> Tensor.transpose2 (ts p))
  | Isa.Tma_load { desc; offs; dst; rows; cols; dtype; full } ->
    let issue = cfg.Config.tma_issue_cycles in
    let bytes = Float.of_int (Sim.bytes_of ~rows ~cols dtype) in
    let busy = bytes /. cfg.Config.tma_bytes_per_cycle in
    let latency = cfg.Config.tma_latency in
    let bar_base = full.Isa.base in
    let bar_idx = iget full.Isa.index in
    let timing w =
      let ctx = w.x in
      spend w b_tma issue;
      let pp = ctx.pipes in
      let start = fmax pp.tma_free w.c.t in
      pp.tma_free <- start +. busy;
      pp.tma_busy <- pp.tma_busy +. busy;
      pp.tma_bytes <- pp.tma_bytes +. bytes;
      ctx.stats.Sim.tma_count <- ctx.stats.Sim.tma_count + 1;
      let completion = start +. busy +. latency in
      let bar = bar_base + bar_idx w.planes in
      rec_completion w bar ctx.mbars.(bar)
        (Mbarrier.arrive ctx.mbars.(bar) ~time:completion)
    in
    if functional then begin
      let dd = dget desc in
      let i0, i1 = compile_offs offs in
      (* 1-D loads address the column axis of a row vector. *)
      let swap = rows = 1 && List.length offs = 1 in
      let alloc = dst.Isa.alloc in
      let islot = iget dst.Isa.slot in
      fun w ->
        let ctx = w.x in
        timing w;
        let p = w.planes in
        let d = dd p in
        (match d.Sim.buffer with
        | Some buf ->
          let r0 = i0 p in
          let c0 = i1 p in
          let r0, c0 = if swap then (0, r0) else (r0, c0) in
          smem_set ctx alloc (islot p)
            (Tensor.slice2 ~dtype buf ~r0 ~c0 ~rows ~cols)
        | None -> err "sim: functional TMA load without buffer");
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        timing w;
        w.pc <- w.pc + 1
  | Isa.Cp_async { ring; desc; offs; dst; rows; cols; dtype; last } ->
    let bytes = Sim.bytes_of ~rows ~cols dtype in
    let chunks = (bytes + cfg.Config.cp_chunk_bytes - 1) / cfg.Config.cp_chunk_bytes in
    let issue = Float.of_int chunks *. cfg.Config.cp_issue_cycles_per_chunk in
    let busy = Float.of_int bytes /. cfg.Config.cp_async_bytes_per_cycle in
    let fbytes = Float.of_int bytes in
    let latency = cfg.Config.tma_latency in
    let timing w =
      let ctx = w.x in
      spend w b_tma issue;
      let pp = ctx.pipes in
      let start = fmax pp.tma_free w.c.t in
      pp.tma_free <- start +. busy;
      pp.tma_busy <- pp.tma_busy +. busy;
      pp.tma_bytes <- pp.tma_bytes +. fbytes;
      let completion = start +. busy +. latency in
      if last then
        rec_completion w (ring_chan ctx ring) ctx.rings.(ring)
          (Mbarrier.arrive ctx.rings.(ring) ~time:completion)
    in
    if functional then begin
      let dd = dget desc in
      let i0, i1 = compile_offs offs in
      let alloc = dst.Isa.alloc in
      let islot = iget dst.Isa.slot in
      fun w ->
        let ctx = w.x in
        timing w;
        let p = w.planes in
        let d = dd p in
        (match d.Sim.buffer with
        | Some buf ->
          let r0 = i0 p in
          let c0 = i1 p in
          smem_set ctx alloc (islot p)
            (Tensor.slice2 ~dtype buf ~r0 ~c0 ~rows ~cols)
        | None -> err "sim: functional cp.async without buffer");
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        timing w;
        w.pc <- w.pc + 1
  | Isa.Cp_wait_ring { ring; target } ->
    let itgt = iget target in
    fun w ->
      let ctx = w.x in
      let tgt = itgt w.planes in
      let rb = ctx.rings.(ring) in
      if tgt <= 0 || completed rb >= tgt then
        satisfied_wait w ~bucket:b_ring ~sync:sc ~waits:ctx.ring_wait
          ~chan:(ring_chan ctx ring) ring rb tgt
      else begin
        w.state <- Sim.Blocked (Sim.On_ring { ring; target = tgt });
        ctx.ring_waiters.(ring) <- (tgt, w) :: ctx.ring_waiters.(ring)
      end
  | Isa.Ldg { dst; desc; offs; rows; cols; dtype } ->
    let bytes = Float.of_int (Sim.bytes_of ~rows ~cols dtype) in
    let cost = cfg.Config.tma_latency +. (bytes /. cfg.Config.ldg_bytes_per_cycle) in
    if functional then begin
      let dd = dget desc in
      let i0, i1 = compile_offs offs in
      fun w ->
        spend w b_tma cost;
        let p = w.planes in
        let d = dd p in
        (match d.Sim.buffer with
        | Some buf ->
          let r0 = i0 p in
          let c0 = i1 p in
          set_owned p dst (Tensor.slice2 ~dtype buf ~r0 ~c0 ~rows ~cols)
        | None -> err "sim: functional ldg without buffer");
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_tma cost;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Lds { dst; src; shape; dtype } ->
    let bytes = List.fold_left ( * ) 1 shape * Dtype.size_bytes dtype in
    let cost =
      Float.of_int bytes /. cfg.Config.smem_bytes_per_cycle /. Float.of_int coop
    in
    if functional then begin
      let alloc = src.Isa.src.Isa.alloc in
      let islot = iget src.Isa.src.Isa.slot in
      let transposed = src.Isa.transposed in
      fun w ->
        let ctx = w.x in
        spend w b_tma cost;
        let t = smem_get ctx alloc (islot w.planes) in
        let t = if transposed then Tensor.transpose2 t else t in
        (* [set_tensor] disowns: [dst] shares the SMEM tile. *)
        set_tensor w.planes dst t;
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_tma cost;
        set_none w.planes dst;
        w.pc <- w.pc + 1
  | Isa.Sts { src; dst; elems; dtype } ->
    let bytes = elems * Dtype.size_bytes dtype in
    let cost =
      Float.of_int bytes /. cfg.Config.smem_bytes_per_cycle /. Float.of_int coop
    in
    if functional then begin
      let ts = tget src in
      let alloc = dst.Isa.alloc in
      let islot = iget dst.Isa.slot in
      let src_reg = match src with Isa.Reg r -> r | Isa.Imm _ | Isa.Fimm _ -> -1 in
      fun w ->
        let ctx = w.x in
        spend w b_tma cost;
        let p = w.planes in
        smem_set ctx alloc (islot p) (ts p);
        (* SMEM now holds the source's tile. *)
        if src_reg >= 0 then disown p src_reg;
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        spend w b_tma cost;
        w.pc <- w.pc + 1
  | Isa.Stg { desc; offs; src; rows; cols } ->
    let dd = dget desc in
    let coop_f = Float.of_int coop in
    let stg_bpc = cfg.Config.stg_bytes_per_cycle in
    let stg_lat = cfg.Config.stg_latency in
    if functional then begin
      let ts = tget src in
      let i0, i1 = compile_offs offs in
      fun w ->
        let p = w.planes in
        let d = dd p in
        let bytes = Float.of_int (Sim.bytes_of ~rows ~cols d.Sim.ddtype) in
        spend w b_tma ((bytes /. stg_bpc /. coop_f) +. stg_lat);
        (match d.Sim.buffer with
        | Some buf ->
          let r0 = i0 p in
          let c0 = i1 p in
          let t = ts p in
          Tensor.blit2 ~dst:buf ~r0 ~c0
            (if Tensor.dtype t = d.Sim.ddtype then t else Tensor.cast d.Sim.ddtype t)
        | None -> err "sim: functional store without buffer");
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        let d = dd w.planes in
        let bytes = Float.of_int (Sim.bytes_of ~rows ~cols d.Sim.ddtype) in
        spend w b_tma ((bytes /. stg_bpc /. coop_f) +. stg_lat);
        w.pc <- w.pc + 1
  | Isa.Mbar_arrive { base; index } ->
    let idx = iget index in
    let mc = cfg.Config.mbar_cycles in
    fun w ->
      let ctx = w.x in
      spend w b_mbar mc;
      let bar = base + idx w.planes in
      rec_completion w bar ctx.mbars.(bar)
        (Mbarrier.arrive ctx.mbars.(bar) ~time:w.c.t);
      w.pc <- w.pc + 1
  | Isa.Mbar_wait { bar; target } ->
    let base = bar.Isa.base in
    let idx = iget bar.Isa.index in
    let itgt = iget target in
    let mc = cfg.Config.mbar_cycles in
    fun w ->
      let ctx = w.x in
      let p = w.planes in
      let b = base + idx p in
      let tgt = itgt p in
      let mb = ctx.mbars.(b) in
      if tgt <= 0 || completed mb >= tgt then
        satisfied_wait w ~bucket:b_mbar ~sync:mc ~waits:ctx.mbar_wait ~chan:b b mb tgt
      else begin
        w.state <- Sim.Blocked (Sim.On_mbar { bar = b; target = tgt });
        ctx.mbar_waiters.(b) <- (tgt, w) :: ctx.mbar_waiters.(b)
      end
  | Isa.Wgmma { a; b; acc; m; n; k; dtype } ->
    let issue = cfg.Config.wgmma_issue_cycles in
    let flops = 2.0 *. Float.of_int m *. Float.of_int n *. Float.of_int k in
    let pen1000 = cfg.Config.wgmma_depth_penalty /. 1000.0 in
    let denom = Config.tc_flops_per_cycle cfg dtype *. cfg.Config.tc_efficiency in
    let timing w =
      let ctx = w.x in
      spend w b_tc issue;
      let pressure =
        1.0 +. (pen1000 *. Float.of_int (max 0 (w.wgmma_groups.flen - 1)))
      in
      let dur = flops *. pressure /. denom in
      let pp = ctx.pipes in
      let start = fmax pp.tc_free w.c.t in
      pp.tc_free <- start +. dur;
      pp.tc_busy <- pp.tc_busy +. dur;
      ctx.stats.Sim.wgmma_count <- ctx.stats.Sim.wgmma_count + 1;
      w.c.wopen <- start +. dur
    in
    if functional then begin
      (* A transposed SMEM view of B is read in place by [dot_tiles]. *)
      let trans_b = match b with Isa.Wsmem v -> v.Isa.transposed | Isa.Wreg _ -> false in
      let compile_src ~in_place (s : Isa.wgmma_src) : wg -> Tensor.t =
        match s with
        | Isa.Wreg r ->
          fun w ->
            let p = w.planes in
            if r < p.cap && Bytes.get p.tags r = t_tensor then
              match p.objs.(r) with
              | Otensor t -> t
              | _ -> err "sim: wgmma register operand is not a tile"
            else err "sim: wgmma register operand is not a tile"
        | Isa.Wsmem v ->
          let alloc = v.Isa.src.Isa.alloc in
          let islot = iget v.Isa.src.Isa.slot in
          let transposed = v.Isa.transposed in
          fun w ->
            let ctx = w.x in
            let t = smem_get ctx alloc (islot w.planes) in
            if transposed && not in_place then Tensor.transpose2 t else t
      in
      let ra = compile_src ~in_place:false a and rb = compile_src ~in_place:true b in
      fun w ->
        timing w;
        let ta = ra w in
        let tb = rb w in
        let p = w.planes in
        let tacc =
          if acc < p.cap && Bytes.get p.tags acc = t_tensor then
            match p.objs.(acc) with
            | Otensor t -> t
            | _ -> err "sim: wgmma accumulator is not a tile"
          else err "sim: wgmma accumulator is not a tile"
        in
        (* Accumulate in place only into an owned tile that is
           neither operand. *)
        let into =
          match owned_tile p acc with
          | Some t when t != ta && t != tb -> Some t
          | _ -> None
        in
        set_owned p acc (Interp.dot_tiles ?into ~trans_b ta tb tacc);
        w.pc <- w.pc + 1
    end
    else
      fun w ->
        timing w;
        w.pc <- w.pc + 1
  | Isa.Wgmma_commit ->
    fun w ->
      if w.c.wopen >= 0.0 then begin
        fring_push w.wgmma_groups w.c.wopen;
        w.c.wopen <- -1.0
      end;
      spend w b_tc 1.0;
      w.pc <- w.pc + 1
  | Isa.Wgmma_wait n ->
    fun w ->
      while w.wgmma_groups.flen > n do
        let t = fring_pop w.wgmma_groups in
        stalled w b_tc (t -. w.c.t);
        w.c.t <- fmax w.c.t t
      done;
      spend w b_tc 1.0;
      w.pc <- w.pc + 1
  | Isa.Fence ->
    fun w ->
      let ctx = w.x in
      w.state <- Sim.Blocked Sim.On_fence;
      ctx.fence_waiters <- w.index :: ctx.fence_waiters;
      release_fences ctx
  | Isa.Sync_reset ->
    (* Reinitializes the barriers [reset_mask] marks, then every ring. *)
    let mc = cfg.Config.mbar_cycles in
    let reset w chan b =
      Mbarrier.reset b;
      match w.x.recorder with
      | Some r -> Tawa_obs.Prof.record_reset r ~chan ~time:w.c.t
      | None -> ()
    in
    fun w ->
      let ctx = w.x in
      Array.iteri (fun i b -> if reset_mask.(i) then reset w i b) ctx.mbars;
      Array.iteri (fun i b -> reset w (ring_chan ctx i) b) ctx.rings;
      spend w b_mbar mc;
      w.pc <- w.pc + 1
  | Isa.Workq_pop { dst } ->
    let cost = cfg.Config.workq_pop_cycles in
    fun w ->
      let ctx = w.x in
      let round = w.pop_round in
      w.pop_round <- round + 1;
      if round >= ctx.popped_len then begin
        if ctx.popped_len >= Array.length ctx.popped then begin
          let bigger = Array.make (2 * Array.length ctx.popped) (-2) in
          Array.blit ctx.popped 0 bigger 0 ctx.popped_len;
          ctx.popped <- bigger
        end;
        ctx.popped.(ctx.popped_len) <- ctx.pop_global ();
        ctx.popped_len <- ctx.popped_len + 1
      end;
      let v = ctx.popped.(round) in
      if v >= 0 then begin
        let gx = ctx.num_programs.(0) and gy = ctx.num_programs.(1) in
        let x = v mod gx and rest = v / gx in
        let y = rest mod gy and z = rest / gy in
        w.wg_pid <- Some [| x; y; z |]
      end;
      set_int w.planes dst v;
      spend w b_compute cost;
      w.pc <- w.pc + 1
  | Isa.Bra { target } ->
    fun w ->
      spend w b_compute sc;
      w.pc <- target
  | Isa.Brz { cond; target } -> (
    match cond with
    | Isa.Reg r when r < 64 ->
      fun w ->
        spend w b_compute sc;
        if bool_at w.planes r then w.pc <- w.pc + 1 else w.pc <- target
    | _ ->
      let bc = bget cond in
      fun w ->
        spend w b_compute sc;
        if bc w.planes then w.pc <- w.pc + 1 else w.pc <- target)
  | Isa.Brnz { cond; target } -> (
    match cond with
    | Isa.Reg r when r < 64 ->
      fun w ->
        spend w b_compute sc;
        if bool_at w.planes r then w.pc <- target else w.pc <- w.pc + 1
    | _ ->
      let bc = bget cond in
      fun w ->
        spend w b_compute sc;
        if bc w.planes then w.pc <- target else w.pc <- w.pc + 1)
  | Isa.Exit ->
    fun w ->
      let ctx = w.x in
      w.state <- Sim.Finished;
      release_fences ctx

(* ---------------- timing-mode stream optimization ----------------- *)

(* In timing mode the decoded stream is specialized further, without
   breaking bit-identity with the reference:

   - {b Dead-write elision}: a register write whose value never
     (transitively) feeds a branch condition, a barrier index, a wait
     target, a store descriptor, or another live value cannot influence
     cycles, stats, profiles, or error behavior. Its closure reduces to
     its cost, and a straight-line run of such instructions collapses
     into one "cost block" that replays the per-instruction [spend]s in
     program order (float addition is not associative, so costs are
     replayed, never pre-summed). Elision is gated on a forward
     abstract interpretation of register tags proving the skipped
     closure could not have raised (operand-kind errors, int division
     by zero, pid-axis bounds): the reference's errors must
     still surface at the same instruction with the same message.

   - {b Superblock fusion}: instructions whose execution can neither
     affect nor observe another warp group — no barrier arrivals or
     waits, no shared-pipe contention unless this stream is the pipe's
     only owner — may retire inside the scheduler slot of their
     predecessor ([local] mask). The heap pop/push and option
     allocation per instruction become one per run. Barrier arrivals
     and waits stay slot-initial: executing an arrival early can flip
     a consumer's wait from the blocked-wake path to the
     satisfied-wait path, which charges [mbar_cycles] to busy time.

   Anything unproven keeps its exact unoptimized closure, and streams
   run unoptimized whenever the launch-time parameters do not conform
   to the decode-time parameter-type assumptions ({!make_ctx}).
   Functional mode never uses either lever: cross-WG data flow through
   shared memory makes fusion observable there. *)

(* Abstract register tags for the decode-time type analysis, one byte
   each so both fixpoints run over a flat pc-major [Bytes] matrix. The
   lattice tracks exactly the distinctions the timing closures' error
   paths depend on: int-ness (ALU dispatch, div-by-zero), scalar-ness
   (predicate/cmp coercions err on object tags), pointer-ness (Mkdesc
   accepts a bound tensor or none), and descriptor dtype (Stg's cost
   depends on it). Codes up to [a_scalar] are the scalar tags (and
   bot); codes above [a_desc] are descriptors of a static dtype. *)
let a_bot = '\000' (* unreachable *)
let a_int = '\001'
let a_float = '\002'
let a_bool = '\003'
let a_scalar = '\004' (* int, float, or bool *)
let a_ptr = '\005' (* tensor or none: a ptr param or a timing-mode tile write *)
let a_any = '\006'
let a_desc = '\007' (* descriptor, dtype unknown *)
let desc_dtypes = [| Dtype.F32; Dtype.F16; Dtype.F8E4M3; Dtype.I32; Dtype.I1 |]

let a_desc_of dt =
  let rec find i = if Dtype.equal desc_dtypes.(i) dt then i else find (i + 1) in
  Char.chr (Char.code a_desc + 1 + find 0)

let ajoin (a : char) b =
  if a = b then a
  else if a = a_bot then b
  else if b = a_bot then a
  else if a <= a_scalar && b <= a_scalar then a_scalar
  else if a >= a_desc && b >= a_desc then a_desc
  else a_any

(* [ajoin] tabulated for the fixpoint's inner loop: the join of tags
   [a] and [b] is at [a * 16 + b]. *)
let join_tbl = Bytes.init 256 (fun i -> ajoin (Char.chr (i lsr 4)) (Char.chr (i land 15)))

(* Decode-time assumptions about launch parameters, derived from
   [program.param_tys]. [make_ctx] re-checks the actual [Sim.rt]
   values against these and falls back to the unoptimized stream when
   a caller binds something else (the analysis would be unsound). *)
type pkind = Kint | Kscalar | Kptr | Kany

let pkind_of_ty (ty : Types.ty) =
  match ty with
  | Types.TScalar Dtype.I32 -> Kint
  | Types.TScalar _ -> Kscalar
  | Types.TPtr _ -> Kptr
  | _ -> Kany

let atag_of_pkind = function
  | Kint -> a_int
  | Kscalar -> a_scalar
  | Kptr -> a_ptr
  | Kany -> a_any

let rt_conforms kind (v : Sim.rt) =
  match (kind, v) with
  | Kany, _ -> true
  | Kint, Sim.Rint _ -> true
  | Kscalar, (Sim.Rint _ | Sim.Rfloat _ | Sim.Rbool _) -> true
  | Kptr, (Sim.Rtensor _ | Sim.Rnone) -> true
  | (Kint | Kscalar | Kptr), _ -> false

let params_conform kinds params =
  let ok = ref true in
  List.iteri
    (fun r v ->
      if r < 64 && r < Array.length kinds && not (rt_conforms kinds.(r) v)
      then ok := false)
    params;
  !ok

(* Registers the TIMING closure of an instruction actually reads (the
   functional-only reads — tile sources, slot indices, offsets — do
   not exist in timing mode; see the closures above). *)
let timing_uses (i : Isa.instr) f =
  let o = function Isa.Reg r -> f r | Isa.Imm _ | Isa.Fimm _ -> () in
  match i with
  | Isa.Alu { a; b; _ } | Isa.Cmp { a; b; _ } ->
    o a;
    o b
  | Isa.Mov { src; _ } -> o src
  | Isa.Sel { cond; a; b; _ } ->
    o cond;
    o a;
    o b
  | Isa.Mkdesc { ptr; _ } -> o ptr
  | Isa.Stg { desc; _ } -> o desc
  | Isa.Tma_load { full; _ } -> o full.Isa.index
  | Isa.Mbar_arrive { Isa.index; _ } -> o index
  | Isa.Mbar_wait { bar; target } ->
    o bar.Isa.index;
    o target
  | Isa.Cp_wait_ring { target; _ } -> o target
  | Isa.Brz { cond; _ } | Isa.Brnz { cond; _ } -> o cond
  | _ -> ()

let atag_of_operand st (o : Isa.operand) =
  match o with
  | Isa.Imm _ -> a_int
  | Isa.Fimm _ -> a_float
  | Isa.Reg r -> if r < Bytes.length st then Bytes.get st r else a_int

let is_num t = t = a_int || t = a_float

(* Abstract transfer of one instruction's TIMING closure. *)
let timing_transfer st (i : Isa.instr) =
  let setd d v = if d < Bytes.length st then Bytes.set st d v in
  match i with
  | Isa.Alu { dst; a; b; _ } ->
    let ta = atag_of_operand st a and tb = atag_of_operand st b in
    setd dst
      (if ta = a_int && tb = a_int then a_int
       else if is_num ta && is_num tb then a_float
       else a_scalar)
  | Isa.Cmp { dst; _ } -> setd dst a_bool
  | Isa.Mov { dst; src } -> setd dst (atag_of_operand st src)
  | Isa.Sel { dst; a; b; _ } ->
    setd dst (ajoin (atag_of_operand st a) (atag_of_operand st b))
  | Isa.Pid { dst; _ } | Isa.Npid { dst; _ } | Isa.Workq_pop { dst } ->
    setd dst a_int
  | Isa.Mkdesc { dst; dtype; _ } -> setd dst (a_desc_of dtype)
  | Isa.Tile_unop { dst; _ }
  | Isa.Tile_binop { dst; _ }
  | Isa.Tile_cmp { dst; _ }
  | Isa.Tile_select { dst; _ }
  | Isa.Tile_cast { dst; _ }
  | Isa.Tile_splat { dst; _ }
  | Isa.Tile_iota { dst; _ }
  | Isa.Tile_bcast { dst; _ }
  | Isa.Tile_reshape { dst; _ }
  | Isa.Tile_reduce { dst; _ }
  | Isa.Tile_trans { dst; _ }
  | Isa.Ldg { dst; _ }
  | Isa.Lds { dst; _ } ->
    (* Timing closures write [set_none] for tile results; [a_ptr]
       covers the none tag. *)
    setd dst a_ptr
  | _ -> ()

let scalar_ok t = t <= a_scalar
let num_ok t = is_num t || t = a_bot
let ptr_arg_ok t = t = a_ptr || t = a_bot

(* CFG successors of [pc] in a stream of [n] instructions, -1 for none
   or outside the stream (blocked instructions resume at pc+1). *)
let succ_pair (i : Isa.instr) pc n =
  let inside s = if s >= 0 && s < n then s else -1 in
  match i with
  | Isa.Bra { target } -> (inside target, -1)
  | Isa.Brz { target; _ } | Isa.Brnz { target; _ } -> (inside (pc + 1), inside target)
  | Isa.Exit -> (-1, -1)
  | _ -> (inside (pc + 1), -1)

(* May the instruction retire inside an ongoing scheduler slot?
   [tc_single]/[tma_single]: this program has at most one stream
   touching the tensor-core / TMA pipe, so the shared [tc_free] /
   [tma_free] horizon and the associated stats floats are updated in
   this stream's program order regardless of slot boundaries. *)
let is_local ~tc_single ~tma_single (i : Isa.instr) =
  match i with
  | Isa.Nop | Isa.Alu _ | Isa.Cmp _ | Isa.Mov _ | Isa.Sel _ | Isa.Pid _
  | Isa.Npid _ | Isa.Mkdesc _ | Isa.Tile_unop _ | Isa.Tile_binop _
  | Isa.Tile_cmp _ | Isa.Tile_select _ | Isa.Tile_cast _ | Isa.Tile_splat _
  | Isa.Tile_iota _ | Isa.Tile_bcast _ | Isa.Tile_reshape _
  | Isa.Tile_reduce _ | Isa.Tile_trans _ | Isa.Ldg _ | Isa.Lds _ | Isa.Sts _
  | Isa.Stg _ | Isa.Wgmma_commit | Isa.Wgmma_wait _ | Isa.Workq_pop _
  | Isa.Bra _ | Isa.Brz _ | Isa.Brnz _ ->
    true
  | Isa.Wgmma _ -> tc_single
  | Isa.Cp_async { last; _ } -> (not last) && tma_single
  | Isa.Tma_load _ | Isa.Cp_wait_ring _ | Isa.Mbar_arrive _ | Isa.Mbar_wait _
  | Isa.Fence | Isa.Sync_reset | Isa.Exit ->
    false

(* Scratch context + warp group for probing the cost of closures that
   read nothing (Nop, tile ops, Ldg/Lds/Sts in timing mode): run the
   compiled closure once on a zeroed clock and read off the spend.
   Reusing the closure itself guarantees the replayed cost is the
   exact float the closure would have produced. *)
let make_probe (cfg : Config.t) role : wg =
  let x =
    new_ctx ~cfg ~nwgs:1 ~pid:[| 0; 0; 0 |] ~num_programs:[| 1; 1; 1 |]
      ~pop_global:(fun () -> -1) ~arrive_counts:[||] ~num_rings:0 ~smem_base:[||]
      ~smem_slots:[||] ~smem_total:0 ()
  in
  let w =
    new_wg x ~index:0 ~role ~code:[||] ~lens:[||] ~local:Bytes.empty
      ~planes:(make_planes 8) ~cells:[||]
  in
  x.wgs <- [| w |];
  w

let probe_cost w (c : code) =
  w.c.t <- 0.0;
  w.c.busy <- 0.0;
  w.pc <- 0;
  Array.fill w.buckets 0 (Array.length w.buckets) 0.0;
  c w;
  let b = ref b_compute in
  Array.iteri (fun i v -> if v <> 0.0 then b := i) w.buckets;
  (!b, w.c.t)

(* Cost of an elidable instruction as (bucket, cycles), or None when
   elision is unprovable (possible error, dynamic cost, side effect). *)
let elide_info ~(cfg : Config.t) ~coop ~probe st (i : Isa.instr)
    (c : code) : (int * float) option =
  let sc = cfg.Config.scalar_cycles in
  match i with
  | Isa.Alu { op; a; b; _ } ->
    let ta = atag_of_operand st a and tb = atag_of_operand st b in
    let div_ok =
      match op with
      | Op.Div | Op.Rem -> (
        (* The int path divides; by-zero is unreachable only when the
           divisor is a non-zero immediate or the float path is proven
           (either operand definitely float). *)
        match b with
        | Isa.Imm k -> k <> 0
        | Isa.Fimm _ -> true
        | Isa.Reg _ -> ta = a_float || tb = a_float)
      | _ -> true
    in
    if num_ok ta && num_ok tb && div_ok then Some (b_compute, sc) else None
  | Isa.Cmp { a; b; _ } ->
    if scalar_ok (atag_of_operand st a) && scalar_ok (atag_of_operand st b)
    then Some (b_compute, sc)
    else None
  | Isa.Mov _ -> Some (b_compute, sc)
  | Isa.Sel { cond; _ } ->
    if scalar_ok (atag_of_operand st cond) then Some (b_compute, sc) else None
  | Isa.Pid { axis; _ } | Isa.Npid { axis; _ } ->
    if axis >= 0 && axis < 3 then Some (b_compute, sc) else None
  | Isa.Mkdesc { ptr; _ } ->
    if ptr_arg_ok (atag_of_operand st ptr) then Some (b_compute, 20.0)
    else None
  | Isa.Nop | Isa.Tile_unop _ | Isa.Tile_binop _ | Isa.Tile_cmp _
  | Isa.Tile_select _ | Isa.Tile_cast _ | Isa.Tile_splat _ | Isa.Tile_iota _
  | Isa.Tile_bcast _ | Isa.Tile_reshape _ | Isa.Tile_reduce _
  | Isa.Tile_trans _ | Isa.Ldg _ | Isa.Lds _ | Isa.Sts _ ->
    Some (probe c)
  | Isa.Stg { desc; rows; cols; _ } ->
    let t = atag_of_operand st desc in
    if t > a_desc then
      let dt = desc_dtypes.(Char.code t - Char.code a_desc - 1) in
      (* Same float expression shape as the compiled closure. *)
      let bytes = Float.of_int (Sim.bytes_of ~rows ~cols dt) in
      Some
        ( b_tma,
          bytes /. cfg.Config.stg_bytes_per_cycle /. Float.of_int coop
          +. cfg.Config.stg_latency )
    else None
  | _ -> None

(* Optimize one stream: returns (units, lens, local mask). *)
let optimize_stream ~(cfg : Config.t) ~coop ~role ~param_atags ~tc_single
    ~tma_single (instrs : Isa.instr array) (codes : code array) :
    code array * int array * Bytes.t =
  let n = Array.length instrs in
  let nregs = ref 64 in
  (* the reg universe: everything mentioned, plus the 64 param slots *)
  let seen r = nregs := max !nregs (r + 1) in
  Array.iter
    (fun i ->
      (match Isa.def i with Some d -> seen d | None -> ());
      timing_uses i seen)
    instrs;
  let nregs = !nregs in
  (* Per pc: its successors and predecessors, the register the timing
     closure defines (-1 for none), and the registers it reads as a bit
     set of [w] words, 63 registers per word, at [pc * w]. *)
  let w = (nregs + 62) / 63 in
  let succ1 = Array.make n (-1) and succ2 = Array.make n (-1) and preds = Array.make n [] in
  let defs = Array.make n (-1) and uses = Array.make (n * w) 0 in
  let mentioned = Array.make nregs false in
  Array.iteri
    (fun pc i ->
      let s1, s2 = succ_pair i pc n in
      succ1.(pc) <- s1;
      succ2.(pc) <- s2;
      if s1 >= 0 then preds.(s1) <- pc :: preds.(s1);
      if s2 >= 0 then preds.(s2) <- pc :: preds.(s2);
      Option.iter (fun d -> defs.(pc) <- d; mentioned.(d) <- true) (Isa.def i);
      timing_uses i (fun r ->
          let j = (pc * w) + (r / 63) in
          uses.(j) <- uses.(j) lor (1 lsl (r mod 63));
          mentioned.(r) <- true))
    instrs;
  (* Both fixpoints revisit only the [dirty] pcs, whose input changed
     since their last visit, sweeping in program order (or its reverse)
     until none is left. Each analysis is monotone over a finite
     lattice, so this reaches the least fixpoint that re-running every
     pc until nothing changes reaches. *)
  let dirty = Array.make n false in
  let solve ~backward visit =
    let again = ref true in
    while !again do
      again := false;
      for i = 0 to n - 1 do
        let pc = if backward then n - 1 - i else i in
        if dirty.(pc) then begin
          dirty.(pc) <- false;
          again := true;
          visit pc
        end
      done
    done
  in
  (* ---- forward abstract interpretation of register tags ----
     Row [pc] of the flat pc-major matrix [ain] holds the [nregs] tags
     on entry to [pc]. Rows are joined only at the registers the stream
     mentions, the only ones an instruction reads. *)
  let regs = Array.of_seq (Seq.filter (Array.get mentioned) (Seq.init nregs Fun.id)) in
  let ain = Bytes.make (n * nregs) a_bot in
  if n > 0 then begin
    Bytes.fill ain 0 nregs a_int;
    Array.iteri (fun r k -> if r < 64 then Bytes.set ain r k) param_atags;
    dirty.(0) <- true
  end;
  let tmp = Bytes.make nregs a_bot in
  let flow s =
    if s >= 0 then
      for q = 0 to Array.length regs - 1 do
        let r = regs.(q) in
        let a = Bytes.unsafe_get ain ((s * nregs) + r) in
        let j = Bytes.get join_tbl ((Char.code a lsl 4) lor Char.code (Bytes.unsafe_get tmp r)) in
        if j <> a then begin
          Bytes.unsafe_set ain ((s * nregs) + r) j;
          dirty.(s) <- true
        end
      done
  in
  solve ~backward:false (fun pc ->
      Bytes.blit ain (pc * nregs) tmp 0 nregs;
      timing_transfer tmp instrs.(pc);
      flow succ1.(pc);
      flow succ2.(pc));
  (* ---- provably-safe static costs (liveness-independent) ---- *)
  let probe_state = make_probe cfg role in
  let probe = probe_cost probe_state in
  let einfo =
    Array.init n (fun pc ->
        Bytes.blit ain (pc * nregs) tmp 0 nregs;
        elide_info ~cfg ~coop ~probe tmp instrs.(pc) codes.(pc))
  in
  (* ---- backward liveness / elision fixpoint, over bit sets ---- *)
  let live_in = Array.make (n * w) 0 and lout = Array.make w 0 in
  let elide = Array.make n false in
  Array.fill dirty 0 n true;
  solve ~backward:true (fun pc ->
      let s1 = succ1.(pc) and s2 = succ2.(pc) and d = defs.(pc) in
      for j = 0 to w - 1 do
        lout.(j) <-
          (if s1 < 0 then 0 else live_in.((s1 * w) + j))
          lor if s2 < 0 then 0 else live_in.((s2 * w) + j)
      done;
      let e = einfo.(pc) <> None && (d < 0 || lout.(d / 63) land (1 lsl (d mod 63)) = 0) in
      elide.(pc) <- e;
      if (not e) && d >= 0 then lout.(d / 63) <- lout.(d / 63) land lnot (1 lsl (d mod 63));
      for j = 0 to w - 1 do
        let v = if e then lout.(j) else lout.(j) lor uses.((pc * w) + j) in
        if v <> live_in.((pc * w) + j) then begin
          live_in.((pc * w) + j) <- v;
          List.iter (fun p -> dirty.(p) <- true) preds.(pc)
        end
      done);
  (* Workq_pop has a queue side effect; never elide it even when its
     destination is dead (the pop order feeds wg_pid and the shared
     memoized round table). [elide_info] already returns None for it,
     as for every instruction with shared-state effects. *)
  (* ---- units: collapse elided runs into cost blocks ---- *)
  let btarget = Array.make (max 1 n) false in
  Array.iter
    (fun i ->
      match i with
      | Isa.Bra { target } | Isa.Brz { target; _ } | Isa.Brnz { target; _ } ->
        if target >= 0 && target < n then btarget.(target) <- true
      | _ -> ())
    instrs;
  let units = Array.copy codes in
  let lens = Array.make n 1 in
  let local = Bytes.make n '\000' in
  for pc = 0 to n - 1 do
    if elide.(pc) || is_local ~tc_single ~tma_single instrs.(pc) then
      Bytes.set local pc '\001'
  done;
  let pc = ref 0 in
  while !pc < n do
    if elide.(!pc) then begin
      let e = ref (!pc + 1) in
      while !e < n && elide.(!e) && not btarget.(!e) do
        incr e
      done;
      let len = !e - !pc in
      let pc_end = !e in
      (if len = 1 then begin
         match einfo.(!pc) with
         | Some (b, c) -> units.(!pc) <- (fun w -> spend w b c; w.pc <- pc_end)
         | None -> assert false
       end
       else begin
         let bks = Array.make len 0 and cs = Array.make len 0.0 in
         for i = 0 to len - 1 do
           match einfo.(!pc + i) with
           | Some (b, c) ->
             bks.(i) <- b;
             cs.(i) <- c
           | None -> assert false
         done;
         let pc0 = !pc in
         units.(!pc) <-
           (fun w ->
             (* Members occupy consecutive source pcs; step the pc in
                lockstep so each replayed cost lands in the member's own
                attribution cell, exactly as the reference charges it. *)
             for i = 0 to len - 1 do
               w.pc <- pc0 + i;
               spend w (Array.unsafe_get bks i) (Array.unsafe_get cs i)
             done;
             w.pc <- pc_end)
       end);
      lens.(!pc) <- len;
      pc := !e
    end
    else incr pc
  done;
  (* ---- superblocks: chain straight-line runs of local units ----
     A popped WG already retires consecutive local units without
     re-entering the ready heap; chaining composes such a run into ONE
     unit so the scheduler's per-unit bookkeeping (length lookup,
     budget check, stats, dispatch) is paid once per run. Member
     closures each advance [w.pc] themselves and execute back-to-back
     in program order, so the composition is observationally identical
     — except the step budget, which is charged for the whole chain up
     front (the same crossing-point argument as cost blocks: a budget
     that expires mid-chain reports exhaustion at the same retired
     count, and an error mid-chain discards the outcome anyway).

     A chain extends unit-by-unit along the static fall-through edge
     [pc + lens.(pc)] while the successor is local and not a branch
     target (branch targets must keep their own entry point; nothing
     else can jump into a chain's interior — the only way in is the
     layout predecessor, which is in the chain). Branches are local
     but set [pc] dynamically, so they terminate the chain that
     absorbs them — which is exactly what makes hot loop bodies
     (compute + back-edge) single-unit. Local units never block,
     finish, or self-enqueue, so state checks stay at chain end. *)
  let falls_through pc =
    match instrs.(pc) with
    | Isa.Bra _ | Isa.Brz _ | Isa.Brnz _ -> false
    | _ -> true
  in
  let hpc = ref 0 in
  while !hpc < n do
    let h = !hpc in
    let cur = ref h in
    if Bytes.get local h <> '\000' then begin
      let members = ref [ h ] and count = ref 1 in
      let fin = ref false in
      while not !fin do
        if not (falls_through !cur) then fin := true
        else begin
          let nx = !cur + lens.(!cur) in
          if nx < n && Bytes.get local nx <> '\000' && not btarget.(nx) then begin
            members := nx :: !members;
            incr count;
            cur := nx
          end
          else fin := true
        end
      done;
      if !count >= 2 then begin
        let mems = Array.of_list (List.rev !members) in
        let total = Array.fold_left (fun a m -> a + lens.(m)) 0 mems in
        let cs = Array.map (fun m -> units.(m)) mems in
        (units.(h) <-
           (match cs with
           | [| c0; c1 |] ->
             fun w ->
               c0 w;
               c1 w
           | [| c0; c1; c2 |] ->
             fun w ->
               c0 w;
               c1 w;
               c2 w
           | [| c0; c1; c2; c3 |] ->
             fun w ->
               c0 w;
               c1 w;
               c2 w;
               c3 w
           | _ ->
             fun w ->
               for i = 0 to Array.length cs - 1 do
                 (Array.unsafe_get cs i) w
               done));
        lens.(h) <- total
      end
    end;
    hpc := !cur + (if !cur = h then lens.(h) else lens.(!cur))
  done;
  (units, lens, local)

(* --------------------------- decoding ----------------------------- *)

type t = {
  d_cfg : Config.t;
  d_program : Isa.program;
  d_codes : code array array; (* per stream, per pc *)
  d_units : code array array;
      (* timing-optimized streams (cost blocks, elided writes); aliases
         [d_codes] when optimization is off *)
  d_lens : int array array; (* instructions retired per unit *)
  d_local : Bytes.t array; (* slot-fusable mask per unit *)
  d_ones : int array array; (* unoptimized unit metadata, for fallback *)
  d_zeros : Bytes.t array;
  d_opt : bool; (* were the streams optimized at decode time? *)
  d_pkinds : pkind array;
      (* parameter-kind assumptions the optimization proved safety
         against; launches that do not conform run [d_codes] *)
  d_roles : Op.wg_role array;
  d_coops : int array;
  d_smem_base : int array; (* per alloc id *)
  d_smem_slots : int array;
  d_smem_total : int;
}

(* [Sync_reset] reinitializes the barriers of the program-level
   resettable mask, which every stream shares. *)
let decode ~(cfg : Config.t) (program : Isa.program) : t =
  let reset_mask =
    Array.init program.Isa.num_mbarriers (fun i ->
        i >= Array.length program.Isa.mbar_resettable
        || program.Isa.mbar_resettable.(i))
  in
  let codes =
    Array.of_list
      (List.map
         (fun (s : Isa.stream) ->
           Array.map (compile_instr ~cfg ~coop:s.Isa.coop ~reset_mask) s.Isa.instrs)
         program.Isa.streams)
  in
  let streams = Array.of_list program.Isa.streams in
  let instrs = Array.map (fun (s : Isa.stream) -> s.Isa.instrs) streams in
  let ones = Array.map (fun is -> Array.make (Array.length is) 1) instrs in
  let zeros =
    Array.map (fun is -> Bytes.make (max 1 (Array.length is)) '\000') instrs
  in
  let pkinds =
    Array.of_list (List.map pkind_of_ty program.Isa.param_tys)
  in
  let opt = not (Config.is_functional cfg) in
  let units, lens, local =
    if not opt then (codes, ones, zeros)
    else begin
      (* Pipe ownership: with at most one stream touching a shared
         pipe, its horizon/stats updates stay in that stream's program
         order under fusion. *)
      let count pred =
        Array.fold_left
          (fun n is -> if Array.exists pred is then n + 1 else n)
          0 instrs
      in
      let tc_single = count (function Isa.Wgmma _ -> true | _ -> false) <= 1 in
      let tma_single =
        count (function Isa.Tma_load _ | Isa.Cp_async _ -> true | _ -> false)
        <= 1
      in
      let param_atags = Array.map atag_of_pkind pkinds in
      let units = Array.make (Array.length streams) [||] in
      let lens = Array.make (Array.length streams) [||] in
      let local = Array.make (Array.length streams) Bytes.empty in
      Array.iteri
        (fun i (s : Isa.stream) ->
          let u, l, loc =
            optimize_stream ~cfg ~coop:s.Isa.coop ~role:s.Isa.role
              ~param_atags ~tc_single ~tma_single instrs.(i) codes.(i)
          in
          units.(i) <- u;
          lens.(i) <- l;
          local.(i) <- loc)
        streams;
      (units, lens, local)
    end
  in
  let max_alloc =
    List.fold_left (fun m (a : Isa.alloc) -> max m a.Isa.alloc_id) (-1)
      program.Isa.allocs
  in
  let slots = Array.make (max_alloc + 1) 0 in
  List.iter
    (fun (a : Isa.alloc) -> if a.Isa.alloc_id >= 0 then slots.(a.Isa.alloc_id) <- a.Isa.slots)
    program.Isa.allocs;
  let base = Array.make (max_alloc + 1) 0 in
  let acc = ref 0 in
  for i = 0 to max_alloc do
    base.(i) <- !acc;
    acc := !acc + slots.(i)
  done;
  {
    d_cfg = cfg;
    d_program = program;
    d_codes = codes;
    d_units = units;
    d_lens = lens;
    d_local = local;
    d_ones = ones;
    d_zeros = zeros;
    d_opt = opt;
    d_pkinds = pkinds;
    d_roles =
      Array.of_list (List.map (fun (s : Isa.stream) -> s.Isa.role) program.Isa.streams);
    d_coops =
      Array.of_list (List.map (fun (s : Isa.stream) -> s.Isa.coop) program.Isa.streams);
    d_smem_base = base;
    d_smem_slots = slots;
    d_smem_total = !acc;
  }

(* ------------------------ context creation ------------------------ *)

let make_ctx ?recorder (d : t) ~(params : Sim.rt list)
    ~(num_programs : int array) ~(pid : int array)
    ~(pop_global : unit -> int) : ectx =
  let program = d.d_program in
  if List.length params <> List.length program.Isa.param_tys then
    err "sim: parameter arity mismatch (%d vs %d)" (List.length params)
      (List.length program.Isa.param_tys);
  (* The timing optimization proved error-freedom against the
     parameter kinds implied by [param_tys] and 3-vector pid/grid
     arrays; a launch that binds anything else falls back to the
     unoptimized stream (bit-identical, just slower). *)
  let use_opt =
    d.d_opt
    && Array.length num_programs >= 3
    && Array.length pid >= 3
    && params_conform d.d_pkinds params
  in
  let ctx =
    new_ctx ?recorder ~cfg:d.d_cfg ~nwgs:(Array.length d.d_codes) ~pid ~num_programs
      ~pop_global
      ~arrive_counts:
        (Array.init program.Isa.num_mbarriers (Array.get program.Isa.mbar_arrive_counts))
      ~num_rings:program.Isa.num_rings ~smem_base:d.d_smem_base
      ~smem_slots:d.d_smem_slots ~smem_total:d.d_smem_total ()
  in
  ctx.wgs <-
    Array.mapi
      (fun i codes ->
        let planes = make_planes 64 in
        (* Kernel params preload registers 0..n-1 (capped at the
           reference file's initial 64 registers). *)
        List.iteri (fun r v -> if r < 64 then set_rt planes r v) params;
        new_wg ctx ~index:i ~role:d.d_roles.(i)
          ~code:(if use_opt then d.d_units.(i) else codes)
          ~lens:(if use_opt then d.d_lens.(i) else d.d_ones.(i))
          ~local:(if use_opt then d.d_local.(i) else d.d_zeros.(i))
          ~planes
          ~cells:(Array.make (Array.length codes * Tawa_obs.Stall.num) 0.0))
      d.d_codes;
  Array.iteri (fun i b -> Mbarrier.set_notify b (fun bar -> wake_mbar ctx i bar)) ctx.mbars;
  Array.iteri (fun i b -> Mbarrier.set_notify b (fun ring -> wake_ring ctx i ring)) ctx.rings;
  ctx

(* ------------------- resource high-water marks -------------------- *)

(** Measured resident footprint of a finished context, the ground truth
    the occupancy scan of the same program
    ({!Tawa_machine.Resources.footprint}) is validated against: both
    count every register a tile lands in, so they agree exactly when
    the run writes every such register. Registers are never retired by
    either engine, so a post-run scan of the tensor plane is the
    high-water mark of register-tile bytes — no hot-path
    instrumentation, preserving the bit-identity contract above.
    Registers [0..nparams-1] hold the launch parameters (whole global
    buffers bound as tensors), not kernel-allocated tiles, and are
    excluded. SMEM writes land only in functional mode, so the SMEM
    figure is meaningful there: every [Some] slot of the dense array
    counts its allocation's slot bytes, plus any out-of-range fallback
    tensors. *)
type hwm = {
  hwm_reg_bytes : int array;  (** per warp group (= per stream) *)
  hwm_smem_bytes : int;
}

let measure_hwm (d : t) (ctx : ectx) : hwm =
  let nparams = List.length d.d_program.Isa.param_tys in
  let tensor_bytes t = Tensor.numel t * Dtype.size_bytes (Tensor.dtype t) in
  let reg_bytes =
    Array.map
      (fun w ->
        let p = w.planes in
        let acc = ref 0 in
        for r = nparams to p.cap - 1 do
          if Bytes.get p.tags r = t_tensor then
            match p.objs.(r) with
            | Otensor t -> acc := !acc + tensor_bytes t
            | _ -> ()
        done;
        !acc)
      ctx.wgs
  in
  let smem = ref 0 in
  List.iter
    (fun (a : Isa.alloc) ->
      let base = ctx.smem_base.(a.Isa.alloc_id) in
      for s = 0 to a.Isa.slots - 1 do
        if ctx.smem.(base + s) <> None then smem := !smem + a.Isa.bytes_per_slot
      done)
    d.d_program.Isa.allocs;
  Hashtbl.iter (fun _ t -> smem := !smem + tensor_bytes t) ctx.smem_over;
  { hwm_reg_bytes = reg_bytes; hwm_smem_bytes = !smem }

(* ------------------------- profiling ------------------------------ *)

(* Stall/channel profile of a finished context; must agree exactly with
   [Oracle.profile_of_cta] on the same program (the charging points above
   mirror the reference's). *)
let profile_of_ctx ~wall (ctx : ectx) : Sim.profile =
  let wg_prof (w : wg) =
    let b = Array.copy w.buckets in
    b.(Tawa_obs.Stall.idle) <- Float.max 0.0 (wall -. w.c.t);
    let cells = Array.copy w.cells in
    (* Trailing idle lands on the instruction the WG finished on — same
       rule as [Oracle.wg_profile], and the pc parks at Exit in both
       engines, so cells stay bit-identical. *)
    let o = (w.pc * Tawa_obs.Stall.num) + Tawa_obs.Stall.idle in
    if o >= 0 && o < Array.length cells then
      cells.(o) <- cells.(o) +. Float.max 0.0 (wall -. w.c.t);
    {
      Sim.p_index = w.index;
      p_role = Op.role_to_string w.role;
      p_time = w.c.t;
      p_busy = w.c.busy;
      p_instret = w.instret;
      p_buckets = b;
      p_cells = cells;
    }
  in
  {
    Sim.wall;
    wg_profs = Array.map wg_prof ctx.wgs;
    chan_profs =
      Sim.chan_profiles ~mbars:ctx.mbars ~rings:ctx.rings
        ~num_rings:ctx.num_rings ~mbar_wait:ctx.mbar_wait
        ~ring_wait:ctx.ring_wait;
  }
