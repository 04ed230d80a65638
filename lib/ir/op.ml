(** Operations, blocks and regions.

    A single op datatype hosts the four dialects the Tawa pipeline works
    with, in the image of Triton-MLIR:

    - [arith]: scalar and elementwise tile arithmetic;
    - [tt]: tile creation, TMA data movement, dot (MMA), reductions;
    - [scf]: structured control flow ([For]/[If]/[Yield]);
    - [tawa]: asynchronous references, warp-group regions, and the async
      MMA ops introduced by the pipelining passes (§III-B, §III-D).

    Blocks own ordered op lists; regions own blocks. Transform passes
    rebuild op lists rather than mutating ops in place, except for
    replace-all-uses-of, which rewrites operand lists. *)

open Tawa_tensor

type binop =
  | Add | Sub | Mul | Div | Rem | Min | Max | And | Or | Xor

type unop = Neg | Exp | Exp2 | Log | Log2 | Sqrt | Rsqrt | Abs | Not

type cmp = Eq | Ne | Lt | Le | Gt | Ge

type reduce_kind = Red_max | Red_min | Red_sum

(** Warp-group roles assigned by the partitioning pass (§III-C). *)
type wg_role = Producer | Consumer

type attr =
  | Attr_int of int
  | Attr_float of float
  | Attr_string of string
  | Attr_bool of bool
  | Attr_ints of int list
  | Attr_dtype of Dtype.t

type opcode =
  (* arith *)
  | Const_int of int
  | Const_float of float
  | Binop of binop
  | Unop of unop
  | Cmp of cmp
  | Select
  | Cast
  (* program / grid *)
  | Program_id of int       (** grid axis *)
  | Num_programs of int
  (* tile creation and reshaping *)
  | Splat                    (** scalar -> tensor *)
  | Iota                     (** make_range: [0, n) as 1-D i32 tensor *)
  | Broadcast                (** size-1 dims stretched to the result shape *)
  | Expand_dims of int       (** insert a 1-sized dim at axis *)
  | Reshape
  | Trans                    (** 2-D transpose *)
  (* tile compute *)
  | Reduce of reduce_kind * int  (** reduce along axis, removing it *)
  | Dot                      (** (a, b, acc) -> acc + a*b on tensor cores *)
  (* memory *)
  | Make_tensor_desc         (** ptr, sizes..., strides... -> TMA descriptor *)
  | Tma_load                 (** desc, offsets... -> register tile (pre-WS IR) *)
  | Tma_store                (** desc, offsets..., tile *)
  | Local_alloc              (** tile -> memdesc: stage a tile into SMEM *)
  | Local_load               (** memdesc -> tile: read a staged tile *)
  (* structured control flow *)
  | For                      (** (lb, ub, step, inits...); body params (iv, iters...) *)
  | Yield
  | If                       (** (cond); then/else regions *)
  (* tawa dialect *)
  | Warp_group               (** one region per warp-group partition *)
  | Aref_create of int       (** depth D; result: TAref *)
  | Aref_put                 (** (aref, slot, payload...) *)
  | Aref_get                 (** (aref, slot) -> payload views *)
  | Aref_consumed            (** (aref, slot) *)
  | Wgmma_issue              (** (a, b, acc) -> acc'; async issue + commit *)
  | Wgmma_wait of int        (** wait until <= N commit groups pending *)

type op = {
  oid : int;
  opcode : opcode;
  mutable operands : Value.t list;
  results : Value.t list;
  mutable attrs : (string * attr) list;
  regions : region list;
}

and block = { mutable params : Value.t list; mutable ops : op list }

and region = { mutable blocks : block list }

(* Atomic: ops may be created concurrently by parallel compiles. *)
let op_counter = Atomic.make 0

let mk ?(operands = []) ?(results = []) ?(attrs = []) ?(regions = []) opcode =
  { oid = Atomic.fetch_and_add op_counter 1 + 1; opcode; operands; results; attrs; regions }

let block ?(params = []) ops = { params; ops }
let region blocks = { blocks }
let single_block_region ?(params = []) ops = { blocks = [ { params; ops } ] }

(** The single block of a region expected to have exactly one. *)
let entry_block (r : region) =
  match r.blocks with
  | [ b ] -> b
  | _ -> invalid_arg "Op.entry_block: region does not have exactly one block"

let attr_int op key =
  match List.assoc_opt key op.attrs with Some (Attr_int i) -> Some i | _ -> None

let attr_string op key =
  match List.assoc_opt key op.attrs with Some (Attr_string s) -> Some s | _ -> None

let attr_bool op key =
  match List.assoc_opt key op.attrs with Some (Attr_bool b) -> Some b | _ -> None

let set_attr op key v = op.attrs <- (key, v) :: List.remove_assoc key op.attrs

let binop_to_string = function
  | Add -> "add" | Sub -> "sub" | Mul -> "mul" | Div -> "div" | Rem -> "rem"
  | Min -> "min" | Max -> "max" | And -> "and" | Or -> "or" | Xor -> "xor"

let unop_to_string = function
  | Neg -> "neg" | Exp -> "exp" | Exp2 -> "exp2" | Log -> "log" | Log2 -> "log2"
  | Sqrt -> "sqrt" | Rsqrt -> "rsqrt" | Abs -> "abs" | Not -> "not"

let cmp_to_string = function
  | Eq -> "eq" | Ne -> "ne" | Lt -> "lt" | Le -> "le" | Gt -> "gt" | Ge -> "ge"

let reduce_to_string = function
  | Red_max -> "max" | Red_min -> "min" | Red_sum -> "sum"

let role_to_string = function
  | Producer -> "producer"
  | Consumer -> "consumer"

let role_of_string = function
  | "producer" -> Some Producer
  | "consumer" -> Some Consumer
  | _ -> None

let opcode_name = function
  | Const_int _ | Const_float _ -> "arith.constant"
  | Binop b -> "arith." ^ binop_to_string b
  | Unop u -> "math." ^ unop_to_string u
  | Cmp c -> "arith.cmp" ^ cmp_to_string c
  | Select -> "arith.select"
  | Cast -> "tt.cast"
  | Program_id _ -> "tt.program_id"
  | Num_programs _ -> "tt.num_programs"
  | Splat -> "tt.splat"
  | Iota -> "tt.make_range"
  | Broadcast -> "tt.broadcast"
  | Expand_dims _ -> "tt.expand_dims"
  | Reshape -> "tt.reshape"
  | Trans -> "tt.trans"
  | Reduce (k, _) -> "tt.reduce_" ^ reduce_to_string k
  | Dot -> "tt.dot"
  | Make_tensor_desc -> "tt.make_tensor_descriptor"
  | Tma_load -> "tt.descriptor_load"
  | Tma_store -> "tt.descriptor_store"
  | Local_alloc -> "ttg.local_alloc"
  | Local_load -> "ttg.local_load"
  | For -> "scf.for"
  | Yield -> "scf.yield"
  | If -> "scf.if"
  | Warp_group -> "tawa.warp_group"
  | Aref_create _ -> "tawa.aref_create"
  | Aref_put -> "tawa.aref_put"
  | Aref_get -> "tawa.aref_get"
  | Aref_consumed -> "tawa.aref_consumed"
  | Wgmma_issue -> "tawa.wgmma_issue"
  | Wgmma_wait _ -> "tawa.wgmma_wait"

(** Fold [f] over every op in a block, recursing into regions
    (pre-order). *)
let rec fold_block f acc (b : block) =
  List.fold_left
    (fun acc op ->
      let acc = f acc op in
      List.fold_left (fun acc r -> fold_region f acc r) acc op.regions)
    acc b.ops

and fold_region f acc (r : region) = List.fold_left (fold_block f) acc r.blocks

let iter_region f r = fold_region (fun () op -> f op) () r

(** Count all ops (recursively) in a region. *)
let count_ops r = fold_region (fun n _ -> n + 1) 0 r

(** Rewrite every operand of every op under [r] through [subst]. *)
let substitute_uses (subst : Value.t -> Value.t) (r : region) =
  iter_region (fun op -> op.operands <- List.map subst op.operands) r

(** Deep-copy a region, freshening every op id, every block param, and
    every result value; returns the clone plus the value mapping used
    (old result/param -> new). External references (values defined
    outside the region) are remapped through [outer] when provided. *)
let clone_region ?(outer : Value.t Value.Tbl.t option) (r : region) :
    region * Value.t Value.Tbl.t =
  let map = Value.Tbl.create 64 in
  let lookup v =
    match Value.Tbl.find_opt map v with
    | Some v' -> v'
    | None -> (
      match outer with
      | Some o -> ( match Value.Tbl.find_opt o v with Some v' -> v' | None -> v)
      | None -> v)
  in
  let clone_value v =
    let v' = Value.fresh ~hint:(Value.hint v) (Value.ty v) in
    Value.Tbl.replace map v v';
    v'
  in
  let rec clone_op (op : op) =
    let results = List.map clone_value op.results in
    let operands = List.map lookup op.operands in
    let regions = List.map clone_reg op.regions in
    { oid = Atomic.fetch_and_add op_counter 1 + 1; opcode = op.opcode; operands; results;
      attrs = op.attrs; regions }
  and clone_block (b : block) =
    let params = List.map clone_value b.params in
    (* Clone params first so body ops see the new bindings. *)
    let ops = List.map clone_op b.ops in
    { params; ops }
  and clone_reg (r : region) = { blocks = List.map clone_block r.blocks } in
  let r' = clone_reg r in
  (r', map)
