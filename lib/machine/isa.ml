(** The PTX-like target ISA.

    The aref lowering (§III-E) targets exactly the Hopper mechanisms the
    paper describes: mbarriers with phase/parity and transaction counts,
    TMA bulk-tensor copies that land in shared memory and arrive on a
    barrier, asynchronous WGMMA with commit groups and bounded waits,
    and the Ampere-style [cp.async] path used by the Triton baseline.

    Values live in virtual registers (scalars, register tiles, TMA
    descriptors); shared memory is modelled as typed allocations with
    [D] slots each, addressed by (allocation, dynamic slot index). A
    warp group executes one instruction stream; streams of a CTA share
    mbarriers, SMEM and the tensor-core pipe. *)

open Tawa_tensor
open Tawa_ir

type reg = int

type operand = Reg of reg | Imm of int | Fimm of float

(** A (dynamic) slot of a shared-memory allocation. *)
type smem_slot = { alloc : int; slot : operand }

(** A read view of an SMEM slot: optionally transposed (WGMMA reads
    transposed operands through descriptor strides for free) and
    optionally windowed to a row range (cooperative warp groups split
    the M dimension, §IV-A). *)
type smem_view = {
  src : smem_slot;
  transposed : bool;
  row0 : int;
  rows : int; (* -1 = all rows *)
}

let view_of_slot src = { src; transposed = false; row0 = 0; rows = -1 }

(** Dynamic mbarrier reference: barrier [base + index]. *)
type mbar_ref = { base : int; index : operand }

type wgmma_src = Wreg of reg | Wsmem of smem_view

type instr =
  (* scalar ALU (CUDA cores) *)
  | Alu of { op : Op.binop; dst : reg; a : operand; b : operand }
  | Cmp of { op : Op.cmp; dst : reg; a : operand; b : operand }
  | Mov of { dst : reg; src : operand }
  | Sel of { dst : reg; cond : operand; a : operand; b : operand }
  | Pid of { dst : reg; axis : int }
  | Npid of { dst : reg; axis : int }
  | Mkdesc of {
      dst : reg;
      ptr : operand;
      sizes : operand list;
      strides : operand list;
      dtype : Dtype.t;
    }
  (* register-tile compute (CUDA cores unless noted) *)
  | Tile_unop of { op : Op.unop; dst : reg; src : operand; elems : int }
  | Tile_binop of { op : Op.binop; dst : reg; a : operand; b : operand; elems : int }
  | Tile_cmp of { op : Op.cmp; dst : reg; a : operand; b : operand; elems : int }
  | Tile_select of { dst : reg; cond : operand; a : operand; b : operand; elems : int }
  | Tile_cast of { dst : reg; src : operand; dtype : Dtype.t; elems : int }
  | Tile_splat of { dst : reg; src : operand; shape : int list; dtype : Dtype.t }
  | Tile_iota of { dst : reg; n : int }
  | Tile_bcast of { dst : reg; src : operand; shape : int list }
  | Tile_reshape of { dst : reg; src : operand; shape : int list }
  | Tile_reduce of { kind : Op.reduce_kind; axis : int; dst : reg; src : operand; elems : int }
  | Tile_trans of { dst : reg; src : operand; elems : int }
  (* memory *)
  | Tma_load of {
      desc : operand;
      offs : operand list;
      dst : smem_slot;
      rows : int;
      cols : int;
      dtype : Dtype.t;
      full : mbar_ref; (* completion arrives here with the tx count *)
    }
  | Cp_async of {
      ring : int; (* prefetch ring this copy belongs to *)
      desc : operand;
      offs : operand list;
      dst : smem_slot;
      rows : int;
      cols : int;
      dtype : Dtype.t;
      last : bool; (* completes the put for this ring iteration *)
    } (* Ampere path: issued by the warp group itself, commit-group tracked *)
  | Cp_wait_ring of { ring : int; target : operand }
      (* Block until [target] puts of [ring] have fully landed.
         Semantically what Triton's pipeliner achieves with
         cp.async.wait_group plus masked commits in the loop tail;
         modelled by per-ring completion counts here. *)
  | Ldg of { dst : reg; desc : operand; offs : operand list; rows : int; cols : int; dtype : Dtype.t }
      (* naive synchronous global->register tile load (pre-TMA style);
         used by the no-warp-specialization ablation baseline *)
  | Lds of { dst : reg; src : smem_view; shape : int list; dtype : Dtype.t }
  | Sts of { src : operand; dst : smem_slot; elems : int; dtype : Dtype.t }
  | Stg of { desc : operand; offs : operand list; src : operand; rows : int; cols : int }
  (* synchronization *)
  | Mbar_arrive of mbar_ref
  | Mbar_wait of { bar : mbar_ref; target : operand }
      (* Block until the barrier's completion count >= target. Hardware
         implements this as the 1-bit phase-parity test of §III-E; the
         simulator carries the full count, of which the parity bit is
         the low bit — see {!Tawa_gpusim.Mbarrier}. *)
  (* tensor core *)
  | Wgmma of { a : wgmma_src; b : wgmma_src; acc : reg; m : int; n : int; k : int; dtype : Dtype.t }
  | Wgmma_commit
  | Wgmma_wait of int (* block until <= N commit groups pending *)
  (* control *)
  | Fence (* CTA-wide barrier: every warp group arrives and waits *)
  | Sync_reset
      (* Re-initialize all mbarrier phases and prefetch-ring counts;
         legal only between two Fences (persistent kernels emit
         Fence/Sync_reset/Fence between tiles, trading a few hundred
         cycles for phase bookkeeping across work items) *)
  | Workq_pop of { dst : reg }
      (* persistent kernels: pop a linear tile index from the global
         work queue (one pop per CTA per round, shared by all warp
         groups); -1 when drained *)
  | Bra of { target : int }
  | Brz of { cond : operand; target : int } (* branch if zero/false *)
  | Brnz of { cond : operand; target : int }
  | Nop
  | Exit

(** One SMEM allocation: [slots] buffers of [bytes_per_slot] each. *)
type alloc = { alloc_id : int; slots : int; bytes_per_slot : int; label : string }

type stream = {
  role : Op.wg_role;
  instrs : instr array;
  coop : int;
      (* number of warp groups cooperatively executing this stream
         (§IV-A); they split CUDA-core tile work and accumulator
         registers, and all arrive on consumed barriers *)
}

(** Compile-time provenance carried alongside the instruction streams
    for the deep profiler (DESIGN.md §15). Purely descriptive: nothing
    in the simulator's timing reads it. [no_prov] (all empty) is legal
    everywhere — hand-built programs simply profile at the instruction
    level with numeric channel names. *)
type prov = {
  srcmaps : int array array;
      (* per stream, per pc: the id of the IR op whose lowering emitted
         this instruction, or -1 for synthetic scaffolding (loop
         latches, the persistent work-queue wrapper) *)
  opmeta : (int * string * int) array;
      (* (op id, opcode name, front-end source op id or -1): the source
         id is the pre-pipeline op this op descends from, stamped by the
         pass manager before any transformation clones the kernel *)
  mbar_labels : string array; (* per mbarrier: "a.empty[0]", "scratch:q", ... *)
  ring_labels : string array; (* per cp.async prefetch ring *)
}

let no_prov = { srcmaps = [||]; opmeta = [||]; mbar_labels = [||]; ring_labels = [||] }

(** A machine program. Never mutated after codegen, arrays included:
    {!Progcache.program_fingerprint} memoizes its digest per value. *)
type program = {
  name : string;
  param_tys : Types.ty list;
  streams : stream list;
  allocs : alloc list;
  num_mbarriers : int;
  mbar_arrive_counts : int array; (* arrivals needed per completion *)
  mbar_resettable : bool array;
      (* aref barriers restart their phase targets each persistent work
         item and are re-initialized by Sync_reset; scratch barriers use
         monotonic per-site counters that survive across items and must
         NOT be reset *)
  num_rings : int; (* cp.async prefetch rings *)
  persistent : bool;
  grid_axes : int;
  prov : prov;
}

(** The srcmap of stream [i], or [[||]] when provenance was not
    recorded (hand-built programs). *)
let srcmap (p : program) i =
  if i < Array.length p.prov.srcmaps then p.prov.srcmaps.(i) else [||]

(** Human name of mbarrier [i]: its recorded label, else "mbar<i>". *)
let mbar_label (p : program) i =
  if i < Array.length p.prov.mbar_labels && p.prov.mbar_labels.(i) <> "" then
    p.prov.mbar_labels.(i)
  else Printf.sprintf "mbar%d" i

(** Human name of prefetch ring [i]: its recorded label, else "ring<i>". *)
let ring_label (p : program) i =
  if i < Array.length p.prov.ring_labels && p.prov.ring_labels.(i) <> "" then
    p.prov.ring_labels.(i)
  else Printf.sprintf "ring%d" i

(** (opcode name, front-end source id) of IR op [oid], if recorded. *)
let op_meta (p : program) oid =
  let n = Array.length p.prov.opmeta in
  let rec go i =
    if i >= n then None
    else
      let id, name, src = p.prov.opmeta.(i) in
      if id = oid then Some (name, src) else go (i + 1)
  in
  go 0

let smem_bytes (p : program) =
  List.fold_left (fun acc a -> acc + (a.slots * a.bytes_per_slot)) 0 p.allocs

let instr_count (p : program) =
  List.fold_left (fun acc s -> acc + Array.length s.instrs) 0 p.streams

(** The register [i] writes as its result, if any. [Wgmma] updates its
    accumulator in place and defines none. The decode optimizer and the
    occupancy scan ({!Resources.footprint}) both read defs here. *)
let def (i : instr) =
  match i with
  | Alu { dst; _ }
  | Cmp { dst; _ }
  | Mov { dst; _ }
  | Sel { dst; _ }
  | Pid { dst; _ }
  | Npid { dst; _ }
  | Mkdesc { dst; _ }
  | Tile_unop { dst; _ }
  | Tile_binop { dst; _ }
  | Tile_cmp { dst; _ }
  | Tile_select { dst; _ }
  | Tile_cast { dst; _ }
  | Tile_splat { dst; _ }
  | Tile_iota { dst; _ }
  | Tile_bcast { dst; _ }
  | Tile_reshape { dst; _ }
  | Tile_reduce { dst; _ }
  | Tile_trans { dst; _ }
  | Ldg { dst; _ }
  | Lds { dst; _ }
  | Workq_pop { dst } -> Some dst
  | _ -> None

(* -------------------------- printing ------------------------------ *)

let operand_to_string = function
  | Reg r -> Printf.sprintf "r%d" r
  | Imm i -> string_of_int i
  | Fimm f -> Printf.sprintf "%g" f

let slot_to_string s = Printf.sprintf "smem%d[%s]" s.alloc (operand_to_string s.slot)

let view_to_string v =
  Printf.sprintf "%s%s%s" (slot_to_string v.src)
    (if v.transposed then "^T" else "")
    (if v.rows >= 0 then Printf.sprintf "[rows %d+%d]" v.row0 v.rows else "")

let mbar_to_string m = Printf.sprintf "mbar[%d+%s]" m.base (operand_to_string m.index)

let wgmma_src_to_string = function
  | Wreg r -> Printf.sprintf "r%d" r
  | Wsmem v -> view_to_string v

let to_string (i : instr) =
  let op = operand_to_string in
  match i with
  | Alu { op = o; dst; a; b } ->
    Printf.sprintf "%s r%d, %s, %s" (Op.binop_to_string o) dst (op a) (op b)
  | Cmp { op = o; dst; a; b } ->
    Printf.sprintf "setp.%s r%d, %s, %s" (Op.cmp_to_string o) dst (op a) (op b)
  | Mov { dst; src } -> Printf.sprintf "mov r%d, %s" dst (op src)
  | Sel { dst; cond; a; b } -> Printf.sprintf "sel r%d, %s, %s, %s" dst (op cond) (op a) (op b)
  | Pid { dst; axis } -> Printf.sprintf "mov r%d, %%ctaid.%c" dst "xyz".[axis]
  | Npid { dst; axis } -> Printf.sprintf "mov r%d, %%nctaid.%c" dst "xyz".[axis]
  | Mkdesc { dst; ptr; _ } -> Printf.sprintf "tensormap.create r%d, %s" dst (op ptr)
  | Tile_unop { op = o; dst; src; elems } ->
    Printf.sprintf "tile.%s r%d, %s (%d elems)" (Op.unop_to_string o) dst (op src) elems
  | Tile_binop { op = o; dst; a; b; elems } ->
    Printf.sprintf "tile.%s r%d, %s, %s (%d elems)" (Op.binop_to_string o) dst (op a) (op b) elems
  | Tile_cmp { op = o; dst; a; b; elems } ->
    Printf.sprintf "tile.setp.%s r%d, %s, %s (%d)" (Op.cmp_to_string o) dst (op a) (op b) elems
  | Tile_select { dst; cond; a; b; elems } ->
    Printf.sprintf "tile.sel r%d, %s, %s, %s (%d)" dst (op cond) (op a) (op b) elems
  | Tile_cast { dst; src; dtype; elems } ->
    Printf.sprintf "tile.cvt.%s r%d, %s (%d)" (Dtype.to_string dtype) dst (op src) elems
  | Tile_splat { dst; src; _ } -> Printf.sprintf "tile.splat r%d, %s" dst (op src)
  | Tile_iota { dst; n } -> Printf.sprintf "tile.iota r%d, %d" dst n
  | Tile_bcast { dst; src; _ } -> Printf.sprintf "tile.bcast r%d, %s" dst (op src)
  | Tile_reshape { dst; src; _ } -> Printf.sprintf "tile.reshape r%d, %s" dst (op src)
  | Tile_reduce { kind; axis; dst; src; _ } ->
    Printf.sprintf "tile.red.%s r%d, %s, axis=%d" (Op.reduce_to_string kind) dst (op src) axis
  | Tile_trans { dst; src; _ } -> Printf.sprintf "tile.trans r%d, %s" dst (op src)
  | Tma_load { desc; dst; rows; cols; full; _ } ->
    Printf.sprintf "cp.async.bulk.tensor %s, [%s], %dx%d, arrive %s" (slot_to_string dst)
      (op desc) rows cols (mbar_to_string full)
  | Cp_async { ring; desc; dst; rows; cols; _ } ->
    Printf.sprintf "cp.async(ring %d) %s, [%s], %dx%d" ring (slot_to_string dst) (op desc)
      rows cols
  | Cp_wait_ring { ring; target } ->
    Printf.sprintf "cp.async.wait_group(ring %d) until %s" ring (op target)
  | Ldg { dst; desc; rows; cols; _ } ->
    Printf.sprintf "ld.global r%d, [%s] (%dx%d)" dst (op desc) rows cols
  | Lds { dst; src; _ } -> Printf.sprintf "lds r%d, %s" dst (view_to_string src)
  | Sts { src; dst; _ } -> Printf.sprintf "sts %s, %s" (slot_to_string dst) (op src)
  | Stg { desc; src; rows; cols; _ } ->
    Printf.sprintf "stg [%s], %s (%dx%d)" (op desc) (op src) rows cols
  | Mbar_arrive m -> Printf.sprintf "mbarrier.arrive %s" (mbar_to_string m)
  | Mbar_wait { bar; target } ->
    Printf.sprintf "mbarrier.try_wait.parity %s, phase>=%s" (mbar_to_string bar) (op target)
  | Wgmma { a; b; m; n; k; acc; dtype } ->
    Printf.sprintf "wgmma.mma_async.m%dn%dk%d.%s r%d, %s, %s" m n k (Dtype.to_string dtype)
      acc (wgmma_src_to_string a) (wgmma_src_to_string b)
  | Wgmma_commit -> "wgmma.commit_group"
  | Wgmma_wait n -> Printf.sprintf "wgmma.wait_group %d" n
  | Fence -> "bar.sync 0"
  | Sync_reset -> "mbarrier.reinit.all"
  | Workq_pop { dst } -> Printf.sprintf "atom.global.add r%d, [workq], 1" dst
  | Bra { target } -> Printf.sprintf "bra L%d" target
  | Brz { cond; target } -> Printf.sprintf "brz %s, L%d" (op cond) target
  | Brnz { cond; target } -> Printf.sprintf "brnz %s, L%d" (op cond) target
  | Nop -> "nop"
  | Exit -> "exit"

let pp_program fmt (p : program) =
  Format.fprintf fmt "program %s (smem %d bytes, %d mbarriers%s)@." p.name (smem_bytes p)
    p.num_mbarriers
    (if p.persistent then ", persistent" else "");
  List.iter
    (fun a ->
      Format.fprintf fmt "  .smem %d: %d x %d bytes (%s)@." a.alloc_id a.slots
        a.bytes_per_slot a.label)
    p.allocs;
  List.iteri
    (fun i (s : stream) ->
      Format.fprintf fmt "  // warp group %d: %s@." i (Op.role_to_string s.role);
      Array.iteri (fun j ins -> Format.fprintf fmt "  %4d: %s@." j (to_string ins)) s.instrs)
    p.streams

let program_to_string p = Format.asprintf "%a" pp_program p
