(** Per-SM hardware limits and the one occupancy model: a scan of the
    lowered program ({!footprint}) and the verdict it reaches under the
    limits ({!verdict_of}). The model reads the registers and shared
    memory codegen actually bound, so no second copy of codegen's
    allocation decisions exists to drift. The static occupancy analysis
    ({!Tawa_analysis.Statcheck}) and the autotuner's pruning read it. *)

open Tawa_tensor

(* H100 SXM5 per-SM limits. *)
let smem_capacity_bytes = 227 * 1024 (* usable SMEM per CTA on Hopper *)
let regfile_per_sm = 65536 (* 32-bit registers *)
let max_regs_per_thread = 255
let max_ctas_per_sm = 32
let threads_per_warp_group = 128

type usage = {
  smem_bytes : int;
  regs_per_thread_consumer : int;
  regs_per_thread_producer : int;
  total_regs : int;
  num_warp_groups : int;
}

type verdict = Feasible of usage | Infeasible of string

(* ------------------------- the program scan ----------------------- *)

(** One instruction stream's registers. Neither engine frees a
    register, so these are what a warp group holds once it has run. *)
type part = {
  role : Tawa_ir.Op.wg_role;
  coop : int;  (** warp groups cooperating on this stream *)
  tensor_bytes : int;  (** every register a tile instruction writes *)
  scalar_regs : int;  (** every other register, launch parameters included *)
}

type footprint = { parts : part list; smem_bytes : int }

let tile_bytes (shape, dtype) = List.fold_left ( * ) (Dtype.size_bytes dtype) shape

(* The shape and dtype of the tile [i] writes, taken from the
   instruction or from the source register the engine copies them
   from ([tile r] is register [r]'s tile, if it holds one). *)
let tile_def tile (i : Isa.instr) =
  let src = function Isa.Reg r -> tile r | Isa.Imm _ | Isa.Fimm _ -> None in
  let either a b = match src a with Some t -> Some t | None -> src b in
  let reshaped shape o = Option.map (fun (_, dt) -> (shape, dt)) (src o) in
  match i with
  | Isa.Tile_unop { src = s; _ } | Isa.Mov { src = s; _ } -> src s
  | Isa.Tile_binop { a; b; _ } | Isa.Tile_select { a; b; _ } | Isa.Sel { a; b; _ } ->
    either a b
  | Isa.Tile_cmp { a; b; _ } -> Option.map (fun (sh, _) -> (sh, Dtype.I1)) (either a b)
  | Isa.Tile_trans { src = s; _ } -> Option.map (fun (sh, dt) -> (List.rev sh, dt)) (src s)
  | Isa.Tile_cast { src = s; elems; dtype } ->
    Some ((match src s with Some (sh, _) -> sh | None -> [ elems ]), dtype)
  | Isa.Tile_splat { shape; dtype; _ } | Isa.Lds { shape; dtype; _ } -> Some (shape, dtype)
  | Isa.Tile_iota { n; _ } -> Some ([ n ], Dtype.I32)
  | Isa.Tile_bcast { src = s; shape; _ } | Isa.Tile_reshape { src = s; shape; _ } ->
    reshaped shape s
  | Isa.Tile_reduce { axis; src = s; _ } ->
    Option.map (fun (sh, dt) -> (List.filteri (fun j _ -> j <> axis) sh, dt)) (src s)
  | Isa.Ldg { rows; cols; dtype; _ } -> Some ([ rows; cols ], dtype)
  | _ -> None

(* Registers [0, nparams) hold the launch parameters; every other
   register a stream names is one an instruction defines. Codegen emits
   each def before its uses in program order, so one forward pass sees
   every source tile before the copy of it. A register written with
   two sizes counts the larger. *)
let scan_stream ~nparams (s : Isa.stream) =
  let nregs =
    Array.fold_left
      (fun n i -> match Isa.def i with Some d -> max n (d + 1) | None -> n)
      nparams s.Isa.instrs
  in
  let named = Array.init nregs (fun r -> r < nparams) and tiles = Array.make nregs None in
  Array.iter
    (fun i ->
      match Isa.def i with
      | None -> ()
      | Some d -> (
        named.(d) <- true;
        match (tile_def (fun r -> if r < nregs then tiles.(r) else None) i, tiles.(d)) with
        | Some t, Some old when tile_bytes old >= tile_bytes t -> ()
        | Some t, _ -> tiles.(d) <- Some t
        | None, _ -> ()))
    s.Isa.instrs;
  let tensor_bytes, ntiles =
    Array.fold_left
      (fun (b, n) t -> match t with Some t -> (b + tile_bytes t, n + 1) | None -> (b, n))
      (0, 0) tiles
  in
  let nnamed = Array.fold_left (fun n x -> if x then n + 1 else n) 0 named in
  { role = s.Isa.role; coop = s.Isa.coop; tensor_bytes; scalar_regs = nnamed - ntiles }

(** The registers of each stream, in [program.streams] order, and the
    program's SMEM: the sum of its allocations. *)
let footprint (p : Isa.program) : footprint =
  let nparams = List.length p.Isa.param_tys in
  { parts = List.map (scan_stream ~nparams) p.Isa.streams; smem_bytes = Isa.smem_bytes p }

(** Tile bytes spread across the stream's threads as 32-bit registers,
    plus the per-thread scalars. *)
let regs_per_thread (p : part) =
  let threads = threads_per_warp_group * p.coop in
  (((p.tensor_bytes / 4) + threads - 1) / threads) + p.scalar_regs

let total_regs (fp : footprint) =
  List.fold_left
    (fun acc p -> acc + (regs_per_thread p * threads_per_warp_group * p.coop))
    0 fp.parts

(** Is [fp] resident on one H100 SM? The first limit it breaks names
    the reason: registers per thread, then SMEM, then the register
    file. *)
let verdict_of (fp : footprint) : verdict =
  let max_regs pred =
    List.fold_left
      (fun acc p -> if pred p.role then max acc (regs_per_thread p) else acc)
      0 fp.parts
  in
  let worst = max_regs (fun _ -> true) in
  let smem = fp.smem_bytes and total_regs = total_regs fp in
  if worst > max_regs_per_thread then
    Infeasible (Printf.sprintf "a warp group needs %d regs/thread > %d" worst max_regs_per_thread)
  else if smem > smem_capacity_bytes then
    Infeasible (Printf.sprintf "static SMEM %d bytes exceeds %d" smem smem_capacity_bytes)
  else if total_regs > regfile_per_sm then
    Infeasible
      (Printf.sprintf "total registers %d exceed the %d register file" total_regs regfile_per_sm)
  else
    Feasible
      {
        smem_bytes = smem;
        regs_per_thread_consumer = max_regs (fun r -> r = Tawa_ir.Op.Consumer);
        regs_per_thread_producer = max_regs (fun r -> r <> Tawa_ir.Op.Consumer);
        total_regs;
        num_warp_groups = List.fold_left (fun a p -> a + p.coop) 0 fp.parts;
      }

(** The occupancy verdict of a lowered program: the autotuner's pruning
    predicate. *)
let occupancy (p : Isa.program) : verdict = verdict_of (footprint p)
