(* The tree-walking CTA interpreter: the reference every differential
   suite pins the decoded engine ({!Tawa_gpusim.Decode} +
   {!Tawa_gpusim.Engine.run_decoded}) to, bit for bit — cycles, stats,
   stall buckets, per-op cells, channel occupancy, critical paths,
   functional tensors and error messages.

   Each warp group is an interpreter over its instruction stream with a
   local clock; [step] re-matches every instruction, boxes scalars in
   [Sim.rt] and hashes SMEM slots. That makes it slow, and obviously
   faithful to the cost model, which is why it stays here as the
   oracle rather than as an execution path of the library. Errors
   raise [Sim.Sim_error] with the same text as the decoded engine.

   Besides the interpreter this module is the tests' one harness for
   it: [run_cta] mirrors [Engine.run_cta], [run_grid_functional]
   issues a grid's CTAs the way [Launch.cta_units] does, and
   [estimate_both] runs the CTA [Launch.estimate] simulates under both
   engines. *)

open Tawa_tensor
open Tawa_ir
open Tawa_machine
open Tawa_gpusim
open Sim

let err fmt = Format.kasprintf (fun s -> raise (Sim_error s)) fmt

(* Stall-attribution bucket indices (DESIGN.md §10). Every clock advance
   below is charged to exactly one bucket; the decode engine mirrors the
   same charging so attribution is engine-independent. *)
let b_compute = Tawa_obs.Stall.compute
let b_tma = Tawa_obs.Stall.tma
let b_tc = Tawa_obs.Stall.tensorcore
let b_mbar = Tawa_obs.Stall.mbar_wait
let b_ring = Tawa_obs.Stall.ring_wait
let b_fence = Tawa_obs.Stall.fence_wait
let b_idle = Tawa_obs.Stall.idle

type wg = {
  index : int;
  stream : Isa.stream;
  mutable pc : int;
  mutable time : float;
  mutable regs : rt array;
  mutable state : wg_state;
  mutable wgmma_open : float; (* completion of the latest uncommitted wgmma *)
  mutable wgmma_groups : float Queue.t; (* committed, not yet waited *)
  mutable pop_round : int;
  mutable wg_pid : int array option;
      (* persistent kernels: this WG's current work item. Each WG pops
         the same memoized sequence, but at its own pace — a shared pid
         would let a fast producer clobber the tile the consumer is
         still working on. *)
  mutable busy : float; (* non-stalled cycles, for utilization stats *)
  mutable instret : int;
  buckets : float array; (* per-Stall-bucket cycle attribution *)
  cells : float array;
      (* per-(pc, bucket) cycle attribution: Stall.num entries per
         instruction of the stream, row-major by pc. Every cycle charged
         to [buckets] is charged to the cell of the instruction the WG's
         pc points at — the deep-profiler's raw material (DESIGN.md §15). *)
}

type cta = {
  cfg : Config.t;
  program : Isa.program;
  params : rt array;
  mutable pid : int array;
  num_programs : int array;
  wgs : wg array;
  mbars : Mbarrier.t array;
  rings : Mbarrier.t array;
  smem : (int * int, Tensor.t) Hashtbl.t;
  mutable tma_free : float;
  mutable tc_free : float;
  mutable fence_waiters : int list;
  mutable popped : int array; (* memoized queue pops, grown on demand *)
  mutable popped_len : int;
  pop_global : unit -> int;
  stats : stats;
  mbar_wait : float array; (* per-channel blocked time (excl. sync cost) *)
  ring_wait : float array;
  recorder : Tawa_obs.Prof.t option;
      (* deep-profiler event sink; None (the default) records nothing.
         Channel ids follow the Prof convention: mbarrier [i] is
         channel [i], ring [r] is channel [num_mbarriers + r]. *)
}

let create ?recorder ~(cfg : Config.t) ~(program : Isa.program)
    ~(params : rt list) ~(num_programs : int array)
    ~(pop_global : unit -> int) () =
  if List.length params <> List.length program.Isa.param_tys then
    err "sim: parameter arity mismatch (%d vs %d)" (List.length params)
      (List.length program.Isa.param_tys);
  let params = Array.of_list params in
  let wgs =
    Array.of_list
      (List.mapi
         (fun i (s : Isa.stream) ->
           let regs = Array.make 64 (Rint 0) in
           Array.blit (Array.map Fun.id params) 0 regs 0
             (min (Array.length params) 64);
           {
             index = i;
             stream = s;
             pc = 0;
             time = 0.0;
             regs;
             state = Running;
             wgmma_open = -1.0;
             wgmma_groups = Queue.create ();
             pop_round = 0;
             wg_pid = None;
             busy = 0.0;
             instret = 0;
             buckets = Array.make Tawa_obs.Stall.num 0.0;
             cells =
               Array.make
                 (Array.length s.Isa.instrs * Tawa_obs.Stall.num)
                 0.0;
           })
         program.Isa.streams)
  in
  {
    cfg;
    program;
    params;
    pid = [| 0; 0; 0 |];
    num_programs;
    wgs;
    mbars =
      Array.init program.Isa.num_mbarriers (fun i ->
          Mbarrier.create ~arrive_count:program.Isa.mbar_arrive_counts.(i));
    rings = Array.init (max 1 program.Isa.num_rings) (fun _ -> Mbarrier.create ~arrive_count:1);
    smem = Hashtbl.create 64;
    tma_free = 0.0;
    tc_free = 0.0;
    fence_waiters = [];
    popped = Array.make 16 (-2);
    popped_len = 0;
    pop_global;
    stats = { tc_busy = 0.0; tma_busy = 0.0; tma_bytes = 0.0; wgmma_count = 0;
              tma_count = 0; steps = 0 };
    mbar_wait = Array.make (max 1 program.Isa.num_mbarriers) 0.0;
    ring_wait = Array.make (max 1 program.Isa.num_rings) 0.0;
    recorder;
  }

(* ------------------------- register file -------------------------- *)

let reg_read wg r = if r < Array.length wg.regs then wg.regs.(r) else Rint 0

let reg_write wg r v =
  if r >= Array.length wg.regs then begin
    let bigger = Array.make (max (2 * Array.length wg.regs) (r + 1)) (Rint 0) in
    Array.blit wg.regs 0 bigger 0 (Array.length wg.regs);
    wg.regs <- bigger
  end;
  wg.regs.(r) <- v

let value_of wg (o : Isa.operand) =
  match o with
  | Isa.Reg r -> reg_read wg r
  | Isa.Imm i -> Rint i
  | Isa.Fimm f -> Rfloat f

let as_int wg o =
  match value_of wg o with
  | Rint i -> i
  | Rbool b -> if b then 1 else 0
  | Rfloat f -> int_of_float f
  | _ -> err "sim: expected integer operand"

let as_float wg o =
  match value_of wg o with
  | Rfloat f -> f
  | Rint i -> Float.of_int i
  | Rbool b -> if b then 1.0 else 0.0
  | _ -> err "sim: expected float operand"

let as_bool wg o =
  match value_of wg o with
  | Rbool b -> b
  | Rint i -> i <> 0
  | Rfloat f -> f <> 0.0
  | _ -> err "sim: expected predicate operand"

let as_tensor wg o =
  match value_of wg o with
  | Rtensor t -> t
  | _ -> err "sim: expected tensor operand"

let as_desc wg o =
  match value_of wg o with
  | Rdesc d -> d
  | _ -> err "sim: expected descriptor operand"

(* --------------------------- SMEM --------------------------------- *)

let smem_key cta (s : Isa.smem_slot) wg = (s.Isa.alloc, as_int wg s.Isa.slot)

let smem_read cta wg (v : Isa.smem_view) =
  let key = smem_key cta v.Isa.src wg in
  match Hashtbl.find_opt cta.smem key with
  | None -> err "sim: read of unwritten SMEM slot (alloc %d slot %d)" (fst key) (snd key)
  | Some t -> if v.Isa.transposed then Tensor.transpose2 t else t

let smem_write cta wg (s : Isa.smem_slot) t = Hashtbl.replace cta.smem (smem_key cta s wg) t

(* --------------------------- helpers ------------------------------ *)

let scalar_alu (op : Op.binop) a b =
  match (a, b) with
  | Rint x, Rint y ->
    Rint
      (match op with
      | Op.Add -> x + y | Op.Sub -> x - y | Op.Mul -> x * y
      | Op.Div -> if y = 0 then err "sim: div by zero" else x / y
      | Op.Rem -> if y = 0 then err "sim: rem by zero" else x mod y
      | Op.Min -> min x y | Op.Max -> max x y
      | Op.And -> x land y | Op.Or -> x lor y | Op.Xor -> x lxor y)
  | (Rfloat _ | Rint _), (Rfloat _ | Rint _) ->
    let x = (match a with Rfloat f -> f | Rint i -> Float.of_int i | _ -> 0.0) in
    let y = (match b with Rfloat f -> f | Rint i -> Float.of_int i | _ -> 0.0) in
    Rfloat (Interp.float_binop op x y)
  | _ -> err "sim: bad ALU operands"

let scalar_cmp (op : Op.cmp) a b =
  match (a, b) with
  | Rint x, Rint y -> Rbool (Interp.cmp_pred op x y)
  | _ ->
    let x = (match a with Rfloat f -> f | Rint i -> Float.of_int i | Rbool b -> if b then 1. else 0. | _ -> err "cmp") in
    let y = (match b with Rfloat f -> f | Rint i -> Float.of_int i | Rbool b -> if b then 1. else 0. | _ -> err "cmp") in
    Rbool (Interp.cmp_pred op x y)

(* ------------------------- the step function ---------------------- *)

(* Charge [c] cycles against the per-(pc, bucket) attribution cell of
   the instruction the WG is currently executing. Every charge site in
   [step]/[try_unblock]/[release_fences] fires while [wg.pc] still
   points at the consuming instruction, so no explicit pc argument is
   needed — the decode engine maintains the same discipline. *)
let charge_cell wg b c =
  let o = (wg.pc * Tawa_obs.Stall.num) + b in
  if o >= 0 && o < Array.length wg.cells then wg.cells.(o) <- wg.cells.(o) +. c

(* Advance [wg]'s clock by [c] cycles of real work, charged to stall
   bucket [b]. *)
let spend wg b c =
  wg.time <- wg.time +. c;
  wg.busy <- wg.busy +. c;
  wg.buckets.(b) <- wg.buckets.(b) +. c;
  charge_cell wg b c

(* Attribute a blocked-time jump (clock warp without work) to bucket [b].
   Not counted as busy — mirrors the pre-telemetry accounting. *)
let stalled wg b dt =
  if dt > 0.0 then begin
    wg.buckets.(b) <- wg.buckets.(b) +. dt;
    charge_cell wg b dt
  end

(* ---------------- deep-profiler recording helpers -----------------
   All no-ops when no recorder is attached; every call site fires while
   [wg.pc] is still at the consuming/issuing instruction. The decode
   engine records the same events at the same points. *)

let ring_chan cta r = Array.length cta.mbars + r

let rec_completion cta wg chan (b : Mbarrier.t) completed =
  match cta.recorder with
  | Some r when completed ->
    let n = Mbarrier.completions b in
    Tawa_obs.Prof.record_completion r ~chan ~n
      ~time:(Mbarrier.completion_time b n) ~wg:wg.index ~pc:wg.pc
      ~issue:wg.time
  | _ -> ()

let rec_wait cta wg chan ~target ~start ~ready =
  match cta.recorder with
  | Some r ->
    Tawa_obs.Prof.record_wait r ~chan ~wg:wg.index ~pc:wg.pc ~target ~start
      ~ready ~resume:wg.time
  | None -> ()

(* Retired-op interval [t0, wg.time) at the current pc. *)
let rec_op cta wg ~pc ~t0 =
  match cta.recorder with
  | Some r when wg.time > t0 ->
    Tawa_obs.Prof.record_op r ~wg:wg.index ~pc ~t0 ~t1:wg.time
  | _ -> ()

(* Release fence waiters once every live (non-finished) WG has arrived.
   Checked on [Fence] arrival AND on [Exit]: a WG exiting after a peer
   blocked on a fence shrinks the live count, which can newly satisfy
   the release condition — without the re-check the waiter would be
   stranded in a spurious deadlock. *)
let release_fences cta =
  if cta.fence_waiters <> [] then begin
    let live =
      Array.fold_left (fun n w -> if w.state <> Finished then n + 1 else n) 0 cta.wgs
    in
    if List.length cta.fence_waiters >= live then begin
      let tmax =
        List.fold_left
          (fun acc i -> Float.max acc cta.wgs.(i).time)
          0.0 cta.fence_waiters
      in
      List.iter
        (fun i ->
          let w = cta.wgs.(i) in
          let nt = tmax +. cta.cfg.Config.fence_cycles in
          let t0 = w.time in
          stalled w b_fence (nt -. w.time);
          w.time <- nt;
          rec_op cta w ~pc:w.pc ~t0;
          w.state <- Running;
          w.pc <- w.pc + 1)
        cta.fence_waiters;
      cta.fence_waiters <- []
    end
  end

(* Execute one instruction of [wg]; returns [false] if the WG blocked
   without advancing (pc unchanged). *)
let step cta wg =
  let cfg = cta.cfg in
  let functional = Config.is_functional cfg in
  let i = wg.stream.Isa.instrs.(wg.pc) in
  let coop = wg.stream.Isa.coop in
  cta.stats.steps <- cta.stats.steps + 1;
  let advance () = wg.pc <- wg.pc + 1 in
  let tile_default dst = if not functional then reg_write wg dst Rnone in
  match i with
  | Isa.Nop ->
    spend wg b_compute 1.0;
    advance ();
    true
  | Isa.Alu { op; dst; a; b } ->
    reg_write wg dst (scalar_alu op (value_of wg a) (value_of wg b));
    spend wg b_compute cfg.scalar_cycles;
    advance ();
    true
  | Isa.Cmp { op; dst; a; b } ->
    reg_write wg dst (scalar_cmp op (value_of wg a) (value_of wg b));
    spend wg b_compute cfg.scalar_cycles;
    advance ();
    true
  | Isa.Mov { dst; src } ->
    reg_write wg dst (value_of wg src);
    spend wg b_compute cfg.scalar_cycles;
    advance ();
    true
  | Isa.Sel { dst; cond; a; b } ->
    reg_write wg dst (if as_bool wg cond then value_of wg a else value_of wg b);
    spend wg b_compute cfg.scalar_cycles;
    advance ();
    true
  | Isa.Pid { dst; axis } ->
    let pid = match wg.wg_pid with Some p -> p | None -> cta.pid in
    reg_write wg dst (Rint pid.(axis));
    spend wg b_compute cfg.scalar_cycles;
    advance ();
    true
  | Isa.Npid { dst; axis } ->
    reg_write wg dst (Rint cta.num_programs.(axis));
    spend wg b_compute cfg.scalar_cycles;
    advance ();
    true
  | Isa.Mkdesc { dst; ptr; dtype; _ } ->
    let buffer =
      match value_of wg ptr with
      | Rtensor t -> Some t
      | Rnone -> None
      | _ -> err "sim: descriptor pointer must bind a buffer (or Rnone in timing mode)"
    in
    reg_write wg dst (Rdesc { buffer; ddtype = dtype });
    spend wg b_compute 20.0;
    advance ();
    true
  | Isa.Tile_unop { op; dst; src; elems } ->
    let per_cycle =
      match op with
      | Op.Exp | Op.Exp2 | Op.Log | Op.Log2 | Op.Sqrt | Op.Rsqrt ->
        cfg.sfu_elems_per_cycle
      | Op.Neg | Op.Abs | Op.Not -> cfg.cuda_elems_per_cycle
    in
    let c = tile_cost cfg coop ~elems ~per_cycle in
    spend wg b_compute c;
    if functional then
      reg_write wg dst (Rtensor (Tensor.map (Interp.float_unop op) (as_tensor wg src)))
    else tile_default dst;
    advance ();
    true
  | Isa.Tile_binop { op; dst; a; b; elems } ->
    let c = tile_cost cfg coop ~elems ~per_cycle:cfg.cuda_elems_per_cycle in
    spend wg b_compute c;
    if functional then
      reg_write wg dst
        (Rtensor (Tensor.map2 (Interp.float_binop op) (as_tensor wg a) (as_tensor wg b)))
    else tile_default dst;
    advance ();
    true
  | Isa.Tile_cmp { op; dst; a; b; elems } ->
    spend wg b_compute (tile_cost cfg coop ~elems ~per_cycle:cfg.cuda_elems_per_cycle);
    if functional then
      reg_write wg dst
        (Rtensor (Tensor.cmp (Interp.cmp_pred op) (as_tensor wg a) (as_tensor wg b)))
    else tile_default dst;
    advance ();
    true
  | Isa.Tile_select { dst; cond; a; b; elems } ->
    spend wg b_compute (tile_cost cfg coop ~elems ~per_cycle:cfg.cuda_elems_per_cycle);
    if functional then
      reg_write wg dst
        (Rtensor
           (Tensor.select (as_tensor wg cond) (as_tensor wg a) (as_tensor wg b)))
    else tile_default dst;
    advance ();
    true
  | Isa.Tile_cast { dst; src; dtype; elems } ->
    spend wg b_compute (tile_cost cfg coop ~elems ~per_cycle:cfg.cuda_elems_per_cycle);
    if functional then reg_write wg dst (Rtensor (Tensor.cast dtype (as_tensor wg src)))
    else tile_default dst;
    advance ();
    true
  | Isa.Tile_splat { dst; src; shape; dtype } ->
    let elems = List.fold_left ( * ) 1 shape in
    spend wg b_compute (tile_cost cfg coop ~elems ~per_cycle:cfg.cuda_elems_per_cycle);
    if functional then begin
      let t = Tensor.create ~dtype (Array.of_list shape) in
      Tensor.fill t (as_float wg src);
      reg_write wg dst (Rtensor t)
    end
    else tile_default dst;
    advance ();
    true
  | Isa.Tile_iota { dst; n } ->
    spend wg b_compute (tile_cost cfg coop ~elems:n ~per_cycle:cfg.cuda_elems_per_cycle);
    if functional then
      reg_write wg dst
        (Rtensor (Tensor.init ~dtype:Dtype.I32 [| n |] (fun i -> Float.of_int i.(0))))
    else tile_default dst;
    advance ();
    true
  | Isa.Tile_bcast { dst; src; shape } ->
    let elems = List.fold_left ( * ) 1 shape in
    spend wg b_compute (tile_cost cfg coop ~elems ~per_cycle:cfg.cuda_elems_per_cycle);
    if functional then
      reg_write wg dst (Rtensor (Interp.broadcast_to (as_tensor wg src) shape))
    else tile_default dst;
    advance ();
    true
  | Isa.Tile_reshape { dst; src; shape } ->
    spend wg b_compute cfg.scalar_cycles;
    if functional then
      reg_write wg dst (Rtensor (Tensor.reshape (as_tensor wg src) (Array.of_list shape)))
    else tile_default dst;
    advance ();
    true
  | Isa.Tile_reduce { kind; axis; dst; src; elems } ->
    let c = tile_cost cfg coop ~elems ~per_cycle:cfg.reduce_elems_per_cycle in
    spend wg b_compute c;
    if functional then
      reg_write wg dst (Rtensor (Interp.reduce_tensor kind axis (as_tensor wg src)))
    else tile_default dst;
    advance ();
    true
  | Isa.Tile_trans { dst; src; elems } ->
    spend wg b_compute (tile_cost cfg coop ~elems ~per_cycle:cfg.trans_elems_per_cycle);
    if functional then reg_write wg dst (Rtensor (Tensor.transpose2 (as_tensor wg src)))
    else tile_default dst;
    advance ();
    true
  | Isa.Tma_load { desc; offs; dst; rows; cols; dtype; full } ->
    spend wg b_tma cfg.tma_issue_cycles;
    let bytes = Float.of_int (bytes_of ~rows ~cols dtype) in
    let start = Float.max cta.tma_free wg.time in
    let busy = bytes /. cfg.tma_bytes_per_cycle in
    cta.tma_free <- start +. busy;
    cta.stats.tma_busy <- cta.stats.tma_busy +. busy;
    cta.stats.tma_bytes <- cta.stats.tma_bytes +. bytes;
    cta.stats.tma_count <- cta.stats.tma_count + 1;
    let completion = start +. busy +. cfg.tma_latency in
    let bar = full.Isa.base + as_int wg full.Isa.index in
    rec_completion cta wg bar cta.mbars.(bar)
      (Mbarrier.arrive cta.mbars.(bar) ~time:completion);
    (if functional then
       let d = as_desc wg desc in
       match d.buffer with
       | Some buf ->
         let r0 = as_int wg (List.nth offs 0) in
         let c0 = if List.length offs > 1 then as_int wg (List.nth offs 1) else 0 in
         let r0, c0 = if rows = 1 && List.length offs = 1 then (0, r0) else (r0, c0) in
         smem_write cta wg dst (Tensor.slice2 ~dtype buf ~r0 ~c0 ~rows ~cols)
       | None -> err "sim: functional TMA load without buffer");
    advance ();
    true
  | Isa.Cp_async { ring; desc; offs; dst; rows; cols; dtype; last } ->
    let bytes = bytes_of ~rows ~cols dtype in
    let chunks = (bytes + cfg.cp_chunk_bytes - 1) / cfg.cp_chunk_bytes in
    (* Address generation and issue occupy the warp group itself: the
       cost Tawa offloads to the TMA unit. *)
    spend wg b_tma (Float.of_int chunks *. cfg.cp_issue_cycles_per_chunk);
    let start = Float.max cta.tma_free wg.time in
    let busy = Float.of_int bytes /. cfg.cp_async_bytes_per_cycle in
    cta.tma_free <- start +. busy;
    cta.stats.tma_busy <- cta.stats.tma_busy +. busy;
    cta.stats.tma_bytes <- cta.stats.tma_bytes +. Float.of_int bytes;
    let completion = start +. busy +. cfg.tma_latency in
    if last then
      rec_completion cta wg (ring_chan cta ring) cta.rings.(ring)
        (Mbarrier.arrive cta.rings.(ring) ~time:completion);
    (if functional then
       let d = as_desc wg desc in
       match d.buffer with
       | Some buf ->
         let r0 = as_int wg (List.nth offs 0) in
         let c0 = if List.length offs > 1 then as_int wg (List.nth offs 1) else 0 in
         smem_write cta wg dst (Tensor.slice2 ~dtype buf ~r0 ~c0 ~rows ~cols)
       | None -> err "sim: functional cp.async without buffer");
    advance ();
    true
  | Isa.Cp_wait_ring { ring; target } -> (
    let tgt = as_int wg target in
    match Mbarrier.try_wait cta.rings.(ring) ~target:tgt with
    | Some t ->
      let t0 = wg.time in
      let wait = Float.max wg.time t -. wg.time in
      stalled wg b_ring wait;
      cta.ring_wait.(ring) <- cta.ring_wait.(ring) +. Float.max 0.0 wait;
      Mbarrier.note_consumed cta.rings.(ring) ~target:tgt;
      wg.time <- Float.max wg.time t;
      spend wg b_ring cfg.scalar_cycles;
      rec_wait cta wg (ring_chan cta ring) ~target:tgt ~start:t0 ~ready:t;
      advance ();
      true
    | None ->
      wg.state <- Blocked (On_ring { ring; target = tgt });
      false)
  | Isa.Ldg { dst; desc; offs; rows; cols; dtype } ->
    (* Naive synchronous global load: latency plus a low-efficiency
       per-thread gather. *)
    let bytes = Float.of_int (bytes_of ~rows ~cols dtype) in
    spend wg b_tma (cfg.tma_latency +. (bytes /. cfg.ldg_bytes_per_cycle));
    if functional then begin
      let d = as_desc wg desc in
      match d.buffer with
      | Some buf ->
        let r0 = as_int wg (List.nth offs 0) in
        let c0 = if List.length offs > 1 then as_int wg (List.nth offs 1) else 0 in
        reg_write wg dst (Rtensor (Tensor.slice2 ~dtype buf ~r0 ~c0 ~rows ~cols))
      | None -> err "sim: functional ldg without buffer"
    end
    else reg_write wg dst Rnone;
    advance ();
    true
  | Isa.Lds { dst; src; shape; dtype } ->
    let bytes = List.fold_left ( * ) 1 shape * Dtype.size_bytes dtype in
    spend wg b_tma (Float.of_int bytes /. cfg.smem_bytes_per_cycle /. Float.of_int coop);
    if functional then reg_write wg dst (Rtensor (smem_read cta wg src))
    else reg_write wg dst Rnone;
    advance ();
    true
  | Isa.Sts { src; dst; elems; dtype } ->
    let bytes = elems * Dtype.size_bytes dtype in
    spend wg b_tma (Float.of_int bytes /. cfg.smem_bytes_per_cycle /. Float.of_int coop);
    if functional then smem_write cta wg dst (as_tensor wg src);
    advance ();
    true
  | Isa.Stg { desc; offs; src; rows; cols } ->
    let d = as_desc wg desc in
    let bytes = Float.of_int (bytes_of ~rows ~cols d.ddtype) in
    spend wg b_tma ((bytes /. cfg.stg_bytes_per_cycle /. Float.of_int coop) +. cfg.stg_latency);
    (if functional then
       match d.buffer with
       | Some buf ->
         let r0 = as_int wg (List.nth offs 0) in
         let c0 = if List.length offs > 1 then as_int wg (List.nth offs 1) else 0 in
         Tensor.blit2 ~dst:buf ~r0 ~c0 (Tensor.cast d.ddtype (as_tensor wg src))
       | None -> err "sim: functional store without buffer");
    advance ();
    true
  | Isa.Mbar_arrive { base; index } ->
    spend wg b_mbar cfg.mbar_cycles;
    let bar = base + as_int wg index in
    rec_completion cta wg bar cta.mbars.(bar)
      (Mbarrier.arrive cta.mbars.(bar) ~time:wg.time);
    advance ();
    true
  | Isa.Mbar_wait { bar; target } -> (
    let b = bar.Isa.base + as_int wg bar.Isa.index in
    let tgt = as_int wg target in
    match Mbarrier.try_wait cta.mbars.(b) ~target:tgt with
    | Some t ->
      let t0 = wg.time in
      let wait = Float.max wg.time t -. wg.time in
      stalled wg b_mbar wait;
      cta.mbar_wait.(b) <- cta.mbar_wait.(b) +. Float.max 0.0 wait;
      Mbarrier.note_consumed cta.mbars.(b) ~target:tgt;
      wg.time <- Float.max wg.time t;
      spend wg b_mbar cfg.mbar_cycles;
      rec_wait cta wg b ~target:tgt ~start:t0 ~ready:t;
      advance ();
      true
    | None ->
      wg.state <- Blocked (On_mbar { bar = b; target = tgt });
      false)
  | Isa.Wgmma { a; b; acc; m; n; k; dtype } ->
    spend wg b_tc cfg.wgmma_issue_cycles;
    let flops = 2.0 *. Float.of_int m *. Float.of_int n *. Float.of_int k in
    (* Register pressure from live in-flight fragments slows the MMA's
       accumulator traffic (the P=3 droop of Fig. 11). *)
    let pressure =
      1.0
      +. (cfg.wgmma_depth_penalty /. 1000.0)
         *. Float.of_int (max 0 (Queue.length wg.wgmma_groups - 1))
    in
    let dur =
      flops *. pressure /. (Config.tc_flops_per_cycle cfg dtype *. cfg.tc_efficiency)
    in
    let start = Float.max cta.tc_free wg.time in
    cta.tc_free <- start +. dur;
    cta.stats.tc_busy <- cta.stats.tc_busy +. dur;
    cta.stats.wgmma_count <- cta.stats.wgmma_count + 1;
    wg.wgmma_open <- start +. dur;
    if functional then begin
      let read_src = function
        | Isa.Wreg r -> (
          match reg_read wg r with
          | Rtensor t -> t
          | _ -> err "sim: wgmma register operand is not a tile")
        | Isa.Wsmem v -> smem_read cta wg v
      in
      let ta = read_src a and tb = read_src b in
      let tacc =
        match reg_read wg acc with
        | Rtensor t -> t
        | _ -> err "sim: wgmma accumulator is not a tile"
      in
      reg_write wg acc (Rtensor (Interp.dot_tiles ta tb tacc))
    end;
    advance ();
    true
  | Isa.Wgmma_commit ->
    if wg.wgmma_open >= 0.0 then begin
      Queue.push wg.wgmma_open wg.wgmma_groups;
      wg.wgmma_open <- -1.0
    end;
    spend wg b_tc 1.0;
    advance ();
    true
  | Isa.Wgmma_wait n ->
    while Queue.length wg.wgmma_groups > n do
      let t = Queue.pop wg.wgmma_groups in
      stalled wg b_tc (t -. wg.time);
      wg.time <- Float.max wg.time t
    done;
    spend wg b_tc 1.0;
    advance ();
    true
  | Isa.Fence ->
    (* Arrive; release everyone when all live WGs have arrived. *)
    wg.state <- Blocked On_fence;
    cta.fence_waiters <- wg.index :: cta.fence_waiters;
    release_fences cta;
    true
  | Isa.Sync_reset ->
    Array.iteri
      (fun i b ->
        if
          i >= Array.length cta.program.Isa.mbar_resettable
          || cta.program.Isa.mbar_resettable.(i)
        then begin
          Mbarrier.reset b;
          match cta.recorder with
          | Some r -> Tawa_obs.Prof.record_reset r ~chan:i ~time:wg.time
          | None -> ()
        end)
      cta.mbars;
    Array.iteri
      (fun i b ->
        Mbarrier.reset b;
        match cta.recorder with
        | Some r ->
          Tawa_obs.Prof.record_reset r ~chan:(ring_chan cta i) ~time:wg.time
        | None -> ())
      cta.rings;
    spend wg b_mbar cfg.mbar_cycles;
    advance ();
    true
  | Isa.Workq_pop { dst } ->
    let round = wg.pop_round in
    wg.pop_round <- round + 1;
    if round >= cta.popped_len then begin
      (* First WG of the CTA to reach this round pops the global queue. *)
      if cta.popped_len >= Array.length cta.popped then begin
        let bigger = Array.make (2 * Array.length cta.popped) (-2) in
        Array.blit cta.popped 0 bigger 0 cta.popped_len;
        cta.popped <- bigger
      end;
      cta.popped.(cta.popped_len) <- cta.pop_global ();
      cta.popped_len <- cta.popped_len + 1
    end;
    let v = cta.popped.(round) in
    (* Decode the linear index into the pid registers. *)
    if v >= 0 then begin
      let gx = cta.num_programs.(0) and gy = cta.num_programs.(1) in
      let x = v mod gx and rest = v / gx in
      let y = rest mod gy and z = rest / gy in
      wg.wg_pid <- Some [| x; y; z |]
    end;
    reg_write wg dst (Rint v);
    spend wg b_compute cfg.workq_pop_cycles;
    advance ();
    true
  | Isa.Bra { target } ->
    spend wg b_compute cfg.scalar_cycles;
    wg.pc <- target;
    true
  | Isa.Brz { cond; target } ->
    spend wg b_compute cfg.scalar_cycles;
    if as_bool wg cond then wg.pc <- wg.pc + 1 else wg.pc <- target;
    true
  | Isa.Brnz { cond; target } ->
    spend wg b_compute cfg.scalar_cycles;
    if as_bool wg cond then wg.pc <- target else wg.pc <- wg.pc + 1;
    true
  | Isa.Exit ->
    wg.state <- Finished;
    release_fences cta;
    true

(* Try to unblock a waiting warp group. *)
let try_unblock cta wg =
  match wg.state with
  | Blocked (On_mbar { bar; target }) -> (
    match Mbarrier.try_wait cta.mbars.(bar) ~target with
    | Some t ->
      let t0 = wg.time in
      let nt = Float.max wg.time t +. cta.cfg.mbar_cycles in
      stalled wg b_mbar (nt -. wg.time);
      cta.mbar_wait.(bar) <-
        cta.mbar_wait.(bar) +. Float.max 0.0 (Float.max wg.time t -. wg.time);
      Mbarrier.note_consumed cta.mbars.(bar) ~target;
      wg.time <- nt;
      rec_wait cta wg bar ~target ~start:t0 ~ready:t;
      rec_op cta wg ~pc:wg.pc ~t0;
      wg.state <- Running;
      wg.pc <- wg.pc + 1
    | None -> ())
  | Blocked (On_ring { ring; target }) -> (
    match Mbarrier.try_wait cta.rings.(ring) ~target with
    | Some t ->
      let t0 = wg.time in
      let nt = Float.max wg.time t +. cta.cfg.scalar_cycles in
      stalled wg b_ring (nt -. wg.time);
      cta.ring_wait.(ring) <-
        cta.ring_wait.(ring) +. Float.max 0.0 (Float.max wg.time t -. wg.time);
      Mbarrier.note_consumed cta.rings.(ring) ~target;
      wg.time <- nt;
      rec_wait cta wg (ring_chan cta ring) ~target ~start:t0 ~ready:t;
      rec_op cta wg ~pc:wg.pc ~t0;
      wg.state <- Running;
      wg.pc <- wg.pc + 1
    | None -> ())
  | Blocked On_fence | Running | Finished -> ()

(* ------------------------- profiles ------------------------------- *)

let wg_profile ~wall (wg : wg) : wg_prof =
  let b = Array.copy wg.buckets in
  b.(b_idle) <- Float.max 0.0 (wall -. wg.time);
  let cells = Array.copy wg.cells in
  (* Trailing idle goes to the cell the WG finished on (its Exit): the
     pc is parked there once the state flips to Finished, in both
     engines, so attribution stays bit-identical. *)
  let o = (wg.pc * Tawa_obs.Stall.num) + b_idle in
  if o >= 0 && o < Array.length cells then
    cells.(o) <- cells.(o) +. Float.max 0.0 (wall -. wg.time);
  {
    p_index = wg.index;
    p_role = Op.role_to_string wg.stream.Isa.role;
    p_time = wg.time;
    p_busy = wg.busy;
    p_instret = wg.instret;
    p_buckets = b;
    p_cells = cells;
  }

let profile_of_cta ~wall (cta : cta) : profile =
  {
    wall;
    wg_profs = Array.map (wg_profile ~wall) cta.wgs;
    chan_profs =
      chan_profiles ~mbars:cta.mbars ~rings:cta.rings
        ~num_rings:cta.program.Isa.num_rings ~mbar_wait:cta.mbar_wait
        ~ring_wait:cta.ring_wait;
  }

(** Run the CTA to completion. {!Engine.max_steps} bounds runaway
    programs. *)
let run (cta : cta) : outcome =
  let steps = ref 0 in
  let unfinished () = Array.exists (fun w -> w.state <> Finished) cta.wgs in
  while unfinished () do
    incr steps;
    if !steps > Engine.max_steps then err "sim: step budget exhausted";
    Array.iter (fun w -> try_unblock cta w) cta.wgs;
    (* Pick the runnable WG with the smallest local clock. *)
    let best = ref None in
    Array.iter
      (fun w ->
        if w.state = Running then
          match !best with
          | Some b when (b : wg).time <= w.time -> ()
          | _ -> best := Some w)
      cta.wgs;
    match !best with
    | Some w ->
      w.instret <- w.instret + 1;
      (match cta.recorder with
      | Some _ ->
        let pc0 = w.pc and t0 = w.time in
        let is_fence = w.stream.Isa.instrs.(pc0) = Isa.Fence in
        ignore (step cta w);
        (* Fence spans are recorded by [release_fences] (which also
           covers the peers it wakes); recording here too would double
           the span for the last-arriving WG. *)
        if not is_fence then rec_op cta w ~pc:pc0 ~t0
      | None -> ignore (step cta w))
    | None ->
      let blocked =
        Array.to_list cta.wgs
        |> List.filter (fun w -> w.state <> Finished)
        |> List.map (fun w ->
               Printf.sprintf "wg%d(%s)@pc%d: %s" w.index
                 (Op.role_to_string w.stream.Isa.role)
                 w.pc
                 (match w.state with
                 | Blocked (On_mbar { bar; target }) ->
                   Printf.sprintf "mbar %d >= %d (have %d)" bar target
                     (Mbarrier.completions cta.mbars.(bar))
                 | Blocked (On_ring { ring; target }) ->
                   Printf.sprintf "ring %d >= %d (have %d)" ring target
                     (Mbarrier.completions cta.rings.(ring))
                 | Blocked On_fence -> "fence"
                 | Running | Finished -> "?"))
      in
      err "sim: deadlock: %s" (String.concat "; " blocked)
  done;
  let cycles = Array.fold_left (fun acc w -> Float.max acc w.time) 0.0 cta.wgs in
  { cycles; stats = cta.stats;
    instructions = Array.fold_left (fun a w -> a + w.instret) 0 cta.wgs;
    profile = profile_of_cta ~wall:cycles cta }

(* --------------------------- harness ------------------------------ *)

(** The signature of {!run_cta} and {!Engine.run_cta}, so a test can
    take either engine as a value. *)
type runner =
  ?recorder:Tawa_obs.Prof.t ->
  cfg:Config.t ->
  program:Isa.program ->
  params:rt list ->
  num_programs:int array ->
  ?pid:int array ->
  pop_global:(unit -> int) ->
  unit ->
  outcome

(** Run one CTA on the oracle; the counterpart of {!Engine.run_cta}. *)
let run_cta : runner =
 fun ?recorder ~cfg ~program ~params ~num_programs
     ?(pid = [| 0; 0; 0 |]) ~pop_global () ->
  let cta = create ?recorder ~cfg ~program ~params ~num_programs ~pop_global () in
  cta.pid <- pid;
  run cta

(** Every CTA of [grid] on the oracle in functional mode, one after the
    other, issued the way {!Launch.cta_units} issues them: one CTA per
    program id (x fastest) for a non-persistent grid, or a single CTA
    draining the whole work queue for a persistent program. Mutates the
    buffers bound to pointer params; returns one outcome per CTA. *)
let run_grid_functional ~(cfg : Config.t) (program : Isa.program)
    ~(params : rt list) ~(grid : int * int * int) : outcome array =
  let cfg = { cfg with Config.mode = Config.Functional } in
  let gx, gy, gz = grid in
  let num_programs = [| gx; gy; gz |] in
  let total = gx * gy * gz in
  if program.Isa.persistent then
    [| run_cta ~cfg ~program ~params ~num_programs
         ~pop_global:(Launch.queue_of_list (List.init total Fun.id)) () |]
  else
    Array.init total (fun i ->
        let pid = [| i mod gx; i / gx mod gy; i / gx / gy |] in
        run_cta ~cfg ~program ~params ~num_programs ~pid
          ~pop_global:Launch.no_queue ())

(** Run the CTA that {!Launch.estimate} simulates for [grid]
    ({!Launch.representative_cta}) on the oracle and on the decoded
    engine; returns both outcomes, oracle first. *)
let estimate_both ?rep_pid ~(cfg : Config.t) (program : Isa.program)
    ~(params : rt list) ~(grid : int * int * int) : outcome * outcome =
  let num_programs, pid, queue =
    Launch.representative_cta ?rep_pid ~cfg program ~grid
  in
  let go (run : runner) =
    run ~cfg ~program ~params ~num_programs ~pid ~pop_global:(queue ()) ()
  in
  (go run_cta, go Engine.run_cta)

(** Everything a CTA run reports, bit for bit: cycles, retired
    instructions, every stats counter, and the stall/channel profile.
    An outcome holds only numbers, strings and arrays of them, so
    structural equality is exact float equality. *)
let outcomes_equal (a : outcome) (b : outcome) = a = b
