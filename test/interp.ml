(** Reference interpreter for the tile IR.

    Executes one kernel instance (one CTA / "program") sequentially.
    This gives the golden semantics that the warp-specialized, pipelined
    and lowered forms of a kernel are verified against.

    Warp-specialized kernels are also interpretable: cross-warp-group
    dataflow through arefs is acyclic (producers never wait on
    consumers' values), so regions of a [Warp_group] op are executed to
    completion in order with arefs modelled as unbounded FIFO queues.
    The bounded-depth, mbarrier-synchronized behaviour is exercised by
    the GPU simulator instead.

    It lives with the tests, next to the ISA oracle ([Oracle]): no
    program runs it. The tile math it shares with the engine and the
    oracle is {!Tawa_ir.Tile}. *)

open Tawa_tensor
open Tawa_ir

type rv =
  | RInt of int
  | RFloat of float
  | RBool of bool
  | RTensor of Tensor.t
  | RDesc of desc
  | RChan of rv list Queue.t  (** sequential model of an aref channel *)

and desc = { buffer : Tensor.t; dtype : Dtype.t }

exception Runtime_error of string

let error fmt = Format.kasprintf (fun s -> raise (Runtime_error s)) fmt

let as_int = function
  | RInt i -> i
  | RBool b -> if b then 1 else 0
  | v -> error "expected int, got %s" (match v with RFloat _ -> "float" | RTensor _ -> "tensor" | _ -> "other")

let as_float = function
  | RFloat f -> f
  | RInt i -> Float.of_int i
  | _ -> error "expected float"

let as_bool = function
  | RBool b -> b
  | RInt i -> i <> 0
  | _ -> error "expected bool"

let as_tensor = function RTensor t -> t | _ -> error "expected tensor"
let as_desc = function RDesc d -> d | _ -> error "expected descriptor"
let as_chan = function RChan q -> q | _ -> error "expected aref channel"

(** Execution context for one program instance. *)
type ctx = {
  env : rv Value.Tbl.t;
  program_id : int array;   (* up to 3 grid axes *)
  num_programs : int array;
  mutable steps : int;      (* op-execution counter (fuel / stats) *)
  fuel : int;
}

let create_ctx ?(fuel = 100_000_000) ~program_id ~num_programs () =
  { env = Value.Tbl.create 256; program_id; num_programs; steps = 0; fuel }

let lookup ctx v =
  match Value.Tbl.find_opt ctx.env v with
  | Some rv -> rv
  | None -> error "unbound value %s" (Value.name v)

let bind ctx v rv = Value.Tbl.replace ctx.env v rv

let scalar_binop kind (x : rv) (y : rv) : rv =
  match (x, y) with
  | RInt a, RInt b ->
    RInt
      (match (kind : Op.binop) with
      | Add -> a + b | Sub -> a - b | Mul -> a * b
      | Div -> if b = 0 then error "division by zero" else a / b
      | Rem -> if b = 0 then error "modulo by zero" else a mod b
      | Min -> min a b | Max -> max a b
      | And -> a land b | Or -> a lor b | Xor -> a lxor b)
  | (RFloat _ | RInt _), (RFloat _ | RInt _) ->
    let a = as_float x and b = as_float y in
    RFloat
      (match kind with
      | Add -> a +. b | Sub -> a -. b | Mul -> a *. b | Div -> a /. b
      | Rem -> Float.rem a b | Min -> Float.min a b | Max -> Float.max a b
      | And | Or | Xor -> error "bitwise op on float")
  | RBool a, RBool b ->
    RBool
      (match kind with
      | And -> a && b | Or -> a || b | Xor -> a <> b
      | _ -> error "arith op on bool")
  | _ -> error "binop on non-scalars"

let result_dtype ty =
  match Types.dtype_of ty with Some d -> d | None -> Dtype.F32

(* Execute a block; returns the operands of its terminating Yield (or
   [] if it does not end in one). *)
let rec exec_block ctx (b : Op.block) : rv list =
  let yielded = ref [] in
  List.iter
    (fun op ->
      ctx.steps <- ctx.steps + 1;
      if ctx.steps > ctx.fuel then error "interpreter fuel exhausted";
      match op.Op.opcode with
      | Op.Yield -> yielded := List.map (lookup ctx) op.operands
      | _ -> exec_op ctx op)
    b.ops;
  !yielded

and exec_op ctx (op : Op.op) =
  let operand i = lookup ctx (List.nth op.operands i) in
  let bind1 rv =
    match op.results with
    | [ r ] -> bind ctx r rv
    | _ -> error "op %s expected single result" (Op.opcode_name op.opcode)
  in
  match op.opcode with
  | Op.Const_int i ->
    let r = List.hd op.results in
    (match Value.ty r with
    | Types.TScalar Dtype.I1 -> bind1 (RBool (i <> 0))
    | Types.TScalar d when Dtype.is_float d -> bind1 (RFloat (Float.of_int i))
    | _ -> bind1 (RInt i))
  | Op.Const_float f -> bind1 (RFloat f)
  | Op.Binop kind -> (
    match (operand 0, operand 1) with
    | RTensor a, RTensor b -> bind1 (RTensor (Tensor.map2 (Tile.float_binop kind) a b))
    | x, y -> bind1 (scalar_binop kind x y))
  | Op.Unop kind -> (
    match operand 0 with
    | RTensor t -> bind1 (RTensor (Tensor.map (Tile.float_unop kind) t))
    | RFloat f -> bind1 (RFloat (Tile.float_unop kind f))
    | RInt i -> (
      match kind with
      | Op.Neg -> bind1 (RInt (-i))
      | Op.Abs -> bind1 (RInt (abs i))
      | Op.Not -> bind1 (RInt (lnot i))
      | _ -> bind1 (RFloat (Tile.float_unop kind (Float.of_int i))))
    | RBool b' -> (
      match kind with
      | Op.Not -> bind1 (RBool (not b'))
      | _ -> error "unop on bool")
    | _ -> error "unop operand")
  | Op.Cmp kind -> (
    match (operand 0, operand 1) with
    | RTensor a, RTensor b ->
      let out = Tensor.create ~dtype:Dtype.I1 (Tensor.shape a) in
      for i = 0 to Tensor.numel a - 1 do
        Tensor.set_flat out i
          (if Tile.cmp_pred kind (Tensor.get_flat a i) (Tensor.get_flat b i) then 1.0 else 0.0)
      done;
      bind1 (RTensor out)
    | RInt a, RInt b -> bind1 (RBool (Tile.cmp_pred kind a b))
    | x, y -> bind1 (RBool (Tile.cmp_pred kind (as_float x) (as_float y))))
  | Op.Select -> (
    match (operand 0, operand 1, operand 2) with
    | RTensor c, RTensor x, RTensor y ->
      let out = Tensor.create ~dtype:(Tensor.dtype x) (Tensor.shape x) in
      for i = 0 to Tensor.numel x - 1 do
        Tensor.set_flat out i
          (if Tensor.get_flat c i <> 0.0 then Tensor.get_flat x i else Tensor.get_flat y i)
      done;
      bind1 (RTensor out)
    | c, x, y -> bind1 (if as_bool c then x else y))
  | Op.Cast -> (
    let target = Value.ty (List.hd op.results) in
    match operand 0 with
    | RTensor t -> bind1 (RTensor (Tensor.cast (result_dtype target) t))
    | RFloat f -> (
      match target with
      | Types.TScalar Dtype.I32 -> bind1 (RInt (int_of_float f))
      | Types.TScalar d -> bind1 (RFloat (Tensor.quantize d f))
      | _ -> error "cast target")
    | RInt i -> (
      match target with
      | Types.TScalar d when Dtype.is_float d -> bind1 (RFloat (Float.of_int i))
      | _ -> bind1 (RInt i))
    | v -> bind1 v)
  | Op.Program_id axis -> bind1 (RInt ctx.program_id.(axis))
  | Op.Num_programs axis -> bind1 (RInt ctx.num_programs.(axis))
  | Op.Splat ->
    let target = Value.ty (List.hd op.results) in
    let shape = Array.of_list (Option.get (Types.shape_of target)) in
    let v = as_float (operand 0) in
    let t = Tensor.create ~dtype:(result_dtype target) shape in
    Tensor.fill t v;
    bind1 (RTensor t)
  | Op.Iota ->
    let target = Value.ty (List.hd op.results) in
    let n = List.hd (Option.get (Types.shape_of target)) in
    bind1 (RTensor (Tensor.init ~dtype:Dtype.I32 [| n |] (fun i -> Float.of_int i.(0))))
  | Op.Broadcast ->
    let target = Value.ty (List.hd op.results) in
    bind1 (RTensor (Tile.broadcast_to (as_tensor (operand 0)) (Option.get (Types.shape_of target))))
  | Op.Expand_dims _ | Op.Reshape ->
    let target = Value.ty (List.hd op.results) in
    let t = as_tensor (operand 0) in
    let shape = Array.of_list (Option.get (Types.shape_of target)) in
    let out = Tensor.create ~dtype:(Tensor.dtype t) shape in
    for i = 0 to Tensor.numel t - 1 do
      Tensor.set_flat out i (Tensor.get_flat t i)
    done;
    bind1 (RTensor out)
  | Op.Trans -> bind1 (RTensor (Tensor.transpose2 (as_tensor (operand 0))))
  | Op.Reduce (kind, axis) -> bind1 (RTensor (Tile.reduce_tensor kind axis (as_tensor (operand 0))))
  | Op.Dot | Op.Wgmma_issue ->
    bind1
      (RTensor (Tile.dot_tiles (as_tensor (operand 0)) (as_tensor (operand 1)) (as_tensor (operand 2))))
  | Op.Wgmma_wait _ -> ()
  | Op.Make_tensor_desc ->
    let buffer = as_tensor (operand 0) in
    let target = Value.ty (List.hd op.results) in
    let dtype = result_dtype target in
    bind1 (RDesc { buffer; dtype })
  | Op.Tma_load ->
    let d = as_desc (operand 0) in
    let target = Value.ty (List.hd op.results) in
    (match Option.get (Types.shape_of target) with
    | [ rows; cols ] ->
      let r0 = as_int (operand 1) and c0 = as_int (operand 2) in
      bind1 (RTensor (Tensor.slice2 ~dtype:d.dtype d.buffer ~r0 ~c0 ~rows ~cols))
    | [ n ] ->
      let c0 = as_int (operand 1) in
      let tile = Tensor.slice2 ~dtype:d.dtype d.buffer ~r0:0 ~c0 ~rows:1 ~cols:n in
      bind1 (RTensor (Tensor.init ~dtype:d.dtype [| n |] (fun i -> Tensor.get2 tile 0 i.(0))))
    | _ -> error "tma_load: unsupported rank")
  | Op.Tma_store ->
    let d = as_desc (operand 0) in
    let nops = List.length op.operands in
    let tile = as_tensor (lookup ctx (List.nth op.operands (nops - 1))) in
    let r0 = as_int (operand 1) in
    let c0 = if nops > 3 then as_int (operand 2) else 0 in
    Tensor.blit2 ~dst:d.buffer ~r0 ~c0 tile
  | Op.Local_alloc | Op.Local_load -> bind1 (operand 0)
  | Op.For ->
    let lb = as_int (operand 0) and ub = as_int (operand 1) and step = as_int (operand 2) in
    if step <= 0 then error "for: non-positive step";
    let inits = List.filteri (fun i _ -> i >= 3) op.operands |> List.map (lookup ctx) in
    let blk = Op.entry_block (List.hd op.regions) in
    let iv, iters =
      match blk.params with
      | iv :: iters -> (iv, iters)
      | [] -> error "for: missing induction variable"
    in
    let values = ref inits in
    let k = ref lb in
    while !k < ub do
      bind ctx iv (RInt !k);
      List.iter2 (bind ctx) iters !values;
      values := exec_block ctx blk;
      k := !k + step
    done;
    List.iter2 (bind ctx) op.results !values
  | Op.If ->
    let c = as_bool (operand 0) in
    let region = List.nth op.regions (if c then 0 else 1) in
    let ys = exec_block ctx (Op.entry_block region) in
    List.iter2 (bind ctx) op.results ys
  | Op.Yield -> () (* handled by exec_block *)
  | Op.Warp_group ->
    (* Producer-before-consumer sequential schedule; see module doc. *)
    List.iter (fun r -> ignore (exec_block ctx (Op.entry_block r))) op.regions
  | Op.Aref_create _ -> bind1 (RChan (Queue.create ()))
  | Op.Aref_put ->
    let q = as_chan (operand 0) in
    let payload = List.filteri (fun i _ -> i >= 2) op.operands |> List.map (lookup ctx) in
    Queue.push payload q
  | Op.Aref_get ->
    let q = as_chan (operand 0) in
    if Queue.is_empty q then error "aref_get on empty channel (sequential schedule)";
    let payload = Queue.pop q in
    List.iter2 (bind ctx) op.results payload
  | Op.Aref_consumed -> ()

(** Run a kernel instance. [args] binds kernel parameters: pointers bind
    to global buffers ([RTensor]), scalars to [RInt]/[RFloat]. Stores
    mutate the bound buffers in place. *)
let run_program ?fuel ~program_id ~num_programs (k : Kernel.t) (args : rv list) =
  let ctx = create_ctx ?fuel ~program_id ~num_programs () in
  if List.length args <> List.length k.params then error "run_program: arity mismatch";
  List.iter2 (bind ctx) k.params args;
  ignore (exec_block ctx (Kernel.entry k));
  ctx.steps

(** Launch a kernel over a full grid, sequentially. *)
let run_grid ?fuel ~grid (k : Kernel.t) (args : rv list) =
  let gx, gy, gz = grid in
  let num_programs = [| gx; gy; gz |] in
  let total = ref 0 in
  for x = 0 to gx - 1 do
    for y = 0 to gy - 1 do
      for z = 0 to gz - 1 do
        total := !total + run_program ?fuel ~program_id:[| x; y; z |] ~num_programs k args
      done
    done
  done;
  !total
