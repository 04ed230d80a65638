(** Reference interpreter for the tile IR.

    Executes one kernel instance (one CTA / "program") sequentially.
    This gives the golden semantics that the warp-specialized, pipelined
    and lowered forms of a kernel are verified against.

    Warp-specialized kernels are also interpretable: cross-warp-group
    dataflow through arefs is acyclic (producers never wait on
    consumers' values), so regions of a [Warp_group] op are executed to
    completion in order with arefs modelled as unbounded FIFO queues.
    The bounded-depth, mbarrier-synchronized behaviour is exercised by
    the GPU simulator instead. *)

open Tawa_tensor

type rv =
  | RInt of int
  | RFloat of float
  | RBool of bool
  | RTensor of Tensor.t
  | RDesc of desc
  | RChan of rv list Queue.t  (** sequential model of an aref channel *)
  | RUnit

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

let float_binop kind a b =
  match (kind : Op.binop) with
  | Add -> a +. b | Sub -> a -. b | Mul -> a *. b | Div -> a /. b
  | Rem -> Float.rem a b | Min -> Float.min a b | Max -> Float.max a b
  | And -> Float.of_int (int_of_float a land int_of_float b)
  | Or -> Float.of_int (int_of_float a lor int_of_float b)
  | Xor -> Float.of_int (int_of_float a lxor int_of_float b)

let float_unop kind a =
  match (kind : Op.unop) with
  | Neg -> -.a
  | Exp -> Float.exp a
  | Exp2 -> Float.exp2 a
  | Log -> Float.log a
  | Log2 -> Float.log a /. Float.log 2.0
  | Sqrt -> Float.sqrt a
  | Rsqrt -> 1.0 /. Float.sqrt a
  | Abs -> Float.abs a
  | Not -> if a <> 0.0 then 0.0 else 1.0

let cmp_pred kind a b =
  match (kind : Op.cmp) with
  | Eq -> a = b | Ne -> a <> b | Lt -> a < b | Le -> a <= b | Gt -> a > b | Ge -> a >= b

(* ----------------------- tile payload kernels ----------------------
   The functional simulator's tile math, shared with the test oracle.
   Each kernel writes into [?into] when that tensor has the result's
   dtype and shape ({!Tensor.reuse}), else into a fresh tensor. Each is
   bit-identical to the per-element definition it replaces: the same
   operation on the same operands in the same order, and one quantize
   per stored element. Payloads are invariantly quantized at their
   dtype, so moving one without a requantize is exact. F32, the dtype
   softmax runs in, gets one monomorphic loop per op: no closure call
   and no boxed float per element. *)

(* Float-array accessors typed so the compiler emits unboxed loads and
   stores; the bounds are checked once per tile by each kernel. *)
let[@inline] ( $ ) (a : float array) i = Array.unsafe_get a i
let[@inline] fset (a : float array) i (v : float) = Array.unsafe_set a i v

let unop_f32 kind (s : float array) (d : float array) =
  let n = min (Array.length s) (Array.length d) in
  match (kind : Op.unop) with
  | Neg -> for i = 0 to n - 1 do fset d i (-.(s $ i)) done
  | Exp -> for i = 0 to n - 1 do fset d i (Float.exp (s $ i)) done
  | Exp2 -> for i = 0 to n - 1 do fset d i (Float.exp2 (s $ i)) done
  | Log -> for i = 0 to n - 1 do fset d i (Float.log (s $ i)) done
  | Log2 -> for i = 0 to n - 1 do fset d i (Float.log (s $ i) /. Float.log 2.0) done
  | Sqrt -> for i = 0 to n - 1 do fset d i (Float.sqrt (s $ i)) done
  | Rsqrt -> for i = 0 to n - 1 do fset d i (1.0 /. Float.sqrt (s $ i)) done
  | Abs -> for i = 0 to n - 1 do fset d i (Float.abs (s $ i)) done
  | Not -> for i = 0 to n - 1 do fset d i (if s $ i <> 0.0 then 0.0 else 1.0) done

let binop_f32 kind (x : float array) (y : float array) (d : float array) =
  let n = min (Array.length x) (min (Array.length y) (Array.length d)) in
  match (kind : Op.binop) with
  | Add -> for i = 0 to n - 1 do fset d i ((x $ i) +. (y $ i)) done
  | Sub -> for i = 0 to n - 1 do fset d i ((x $ i) -. (y $ i)) done
  | Mul -> for i = 0 to n - 1 do fset d i ((x $ i) *. (y $ i)) done
  | Div -> for i = 0 to n - 1 do fset d i ((x $ i) /. (y $ i)) done
  | Rem -> for i = 0 to n - 1 do fset d i (Float.rem (x $ i) (y $ i)) done
  | Min -> for i = 0 to n - 1 do fset d i (Float.min (x $ i) (y $ i)) done
  | Max -> for i = 0 to n - 1 do fset d i (Float.max (x $ i) (y $ i)) done
  | And ->
    for i = 0 to n - 1 do
      fset d i (Float.of_int (int_of_float (x $ i) land int_of_float (y $ i)))
    done
  | Or ->
    for i = 0 to n - 1 do
      fset d i (Float.of_int (int_of_float (x $ i) lor int_of_float (y $ i)))
    done
  | Xor ->
    for i = 0 to n - 1 do
      fset d i (Float.of_int (int_of_float (x $ i) lxor int_of_float (y $ i)))
    done

(** [Tensor.map (float_unop kind) t]. [into] may be [t] itself. *)
let unop_tile ?into kind (t : Tensor.t) =
  let out = Tensor.reuse ?into ~dtype:t.Tensor.dtype t.Tensor.shape in
  (match t.Tensor.dtype with
  | Dtype.F32 -> unop_f32 kind t.Tensor.data out.Tensor.data
  | _ -> Tensor.map_into (float_unop kind) ~dst:out t);
  out

(** [Tensor.map2 (float_binop kind) a b]. [into] may be [a] or [b]. *)
let binop_tile ?into kind (a : Tensor.t) (b : Tensor.t) =
  if not (Tensor.shape_equal a b) then invalid_arg "Tensor.map2: shape mismatch";
  let out = Tensor.reuse ?into ~dtype:a.Tensor.dtype a.Tensor.shape in
  (match a.Tensor.dtype with
  | Dtype.F32 -> binop_f32 kind a.Tensor.data b.Tensor.data out.Tensor.data
  | _ -> Tensor.map2_into (float_binop kind) ~dst:out a b);
  out

(** Broadcast a tensor whose some dims are 1 to [shape]. A 2-D
    broadcast is row blits, or row fills from an [m,1] source. [into] is
    never the source. *)
let broadcast_to ?into (t : Tensor.t) (shape : int list) =
  let target = Array.of_list shape in
  let into = match into with Some o when o != t -> into | _ -> None in
  let out = Tensor.reuse ?into ~dtype:(Tensor.dtype t) target in
  let src_shape = t.Tensor.shape in
  (match (src_shape, target) with
  | [| r; c |], [| m; n |] when (r = m || r = 1) && (c = n || c = 1) ->
    let s = t.Tensor.data and d = out.Tensor.data in
    for i = 0 to m - 1 do
      let si = if r = 1 then 0 else i * c in
      if c = n then Array.blit s si d (i * n) n
      else for j = i * n to (i * n) + n - 1 do fset d j (s $ si) done
    done
  | _ ->
    let n = Array.length target in
    let idx = Array.make n 0 in
    let src_idx = Array.make n 0 in
    for lin = 0 to Tensor.numel out - 1 do
      let r = ref lin in
      for i = n - 1 downto 0 do
        idx.(i) <- !r mod target.(i);
        r := !r / target.(i)
      done;
      for i = 0 to n - 1 do
        src_idx.(i) <- (if src_shape.(i) = 1 then 0 else idx.(i))
      done;
      Tensor.set_flat out lin (Tensor.get t src_idx)
    done);
  out

(* Fold each contiguous row of [s] (length [klen]) into one element of
   [d], as [Tensor.reduce_slice] does for F32. *)
let reduce_rows_f32 kind (s : float array) (d : float array) ~klen =
  if Array.length s < Array.length d * klen then invalid_arg "Interp.reduce_rows_f32";
  for g = 0 to Array.length d - 1 do
    let off = g * klen in
    d.(g) <-
      (match (kind : Op.reduce_kind) with
      | Red_max ->
        let acc = ref Float.neg_infinity in
        for i = off to off + klen - 1 do acc := Float.max !acc (s $ i) done;
        !acc
      | Red_min ->
        let acc = ref Float.infinity in
        for i = off to off + klen - 1 do acc := Float.min !acc (s $ i) done;
        !acc
      | Red_sum ->
        let acc = ref 0.0 in
        for i = off to off + klen - 1 do acc := !acc +. (s $ i) done;
        !acc)
  done

let reduce_tensor kind axis (t : Tensor.t) =
  let shape = Tensor.shape t in
  let n = Array.length shape in
  let out_shape =
    Array.of_list (List.filteri (fun i _ -> i <> axis) (Array.to_list shape))
  in
  let init, f =
    match (kind : Op.reduce_kind) with
    | Red_max -> (Float.neg_infinity, Float.max)
    | Red_min -> (Float.infinity, Float.min)
    | Red_sum -> (0.0, ( +. ))
  in
  let out = Tensor.create ~dtype:(Tensor.dtype t) out_shape in
  if axis = n - 1 && Tensor.dtype t = Dtype.F32 then
    reduce_rows_f32 kind t.Tensor.data out.Tensor.data ~klen:shape.(axis)
  else if axis = n - 1 then begin
    (* Innermost axis: each output element folds one contiguous span.
       [reduce_slice] requantizes the accumulator through the dtype at
       every step, exactly as folding through the stored output cell
       below does, so both paths are bit-identical. *)
    let klen = shape.(axis) in
    let init = Tensor.quantize (Tensor.dtype t) init in
    for g = 0 to Tensor.numel out - 1 do
      Tensor.set_flat out g
        (Tensor.reduce_slice f ~init t ~off:(g * klen) ~len:klen)
    done
  end
  else begin
    (* Initialize, then fold over the input. *)
    for i = 0 to Tensor.numel out - 1 do
      Tensor.set_flat out i init
    done;
    let out_idx = Array.make (n - 1) 0 in
    Tensor.iteri
      (fun idx v ->
        let j = ref 0 in
        for i = 0 to n - 1 do
          if i <> axis then begin
            out_idx.(!j) <- idx.(i);
            incr j
          end
        done;
        Tensor.set out out_idx (f (Tensor.get out out_idx) v))
      t
  end;
  out

let[@inline] store_q dtype (d : float array) o v =
  match (dtype : Dtype.t) with
  | F32 -> Array.unsafe_set d o v
  | _ -> Array.unsafe_set d o (Tensor.quantize dtype v)

(** [acc + a · b], quantized once per element through [acc]'s dtype.
    [a] is [m×k], [acc] is [m×n], and [b] is [k×n], or [n×k] read as
    its transpose when [trans_b] (a transposed SMEM view, read in
    place). Each element starts from its [acc] cell and adds its
    products with p ascending, exactly as the i-j-p loop does; the
    2×4 output blocks only keep eight sums in registers at once. [into]
    may be [acc] itself, never [a] or [b]. *)
let dot_tiles ?into ?(trans_b = false) (a : Tensor.t) (b : Tensor.t) (acc : Tensor.t) =
  if Tensor.rank a <> 2 || Tensor.rank b <> 2 then invalid_arg "Interp.dot_tiles: rank <> 2";
  let m = Tensor.dim a 0 and k = Tensor.dim a 1 in
  let kb, n =
    if trans_b then (Tensor.dim b 1, Tensor.dim b 0) else (Tensor.dim b 0, Tensor.dim b 1)
  in
  if kb <> k || acc.Tensor.shape <> [| m; n |] then
    invalid_arg "Interp.dot_tiles: shape mismatch";
  let dtype = acc.Tensor.dtype in
  let out = Tensor.reuse ?into ~dtype acc.Tensor.shape in
  let ad = a.Tensor.data and bd = b.Tensor.data and cd = acc.Tensor.data in
  let od = out.Tensor.data in
  (* B's element (p, j) is bd.(p * bp + j * bj). *)
  let bp, bj = if trans_b then (1, k) else (n, 1) in
  let bj2 = 2 * bj and bj3 = 3 * bj in
  let m2 = m - (m land 1) and n4 = n - (n land 3) in
  for ib = 0 to (m2 / 2) - 1 do
    let ra0 = 2 * ib * k in
    for jb = 0 to (n4 / 4) - 1 do
      let j0 = 4 * jb in
      let o0 = (2 * ib * n) + j0 in
      let o1 = o0 + n in
      let s00 = ref (cd $ o0) and s01 = ref (cd $ (o0 + 1))
      and s02 = ref (cd $ (o0 + 2)) and s03 = ref (cd $ (o0 + 3)) in
      let s10 = ref (cd $ o1) and s11 = ref (cd $ (o1 + 1))
      and s12 = ref (cd $ (o1 + 2)) and s13 = ref (cd $ (o1 + 3)) in
      let bo = ref (j0 * bj) in
      (* [ia] walks row i0 of A, [ia + k] row i0 + 1, [!bo] row p of B. *)
      for ia = ra0 to ra0 + k - 1 do
        let a0 = ad $ ia and a1 = ad $ (ia + k) in
        let o = !bo in
        let b0 = bd $ o and b1 = bd $ (o + bj) in
        let b2 = bd $ (o + bj2) and b3 = bd $ (o + bj3) in
        bo := o + bp;
        s00 := !s00 +. (a0 *. b0);
        s01 := !s01 +. (a0 *. b1);
        s02 := !s02 +. (a0 *. b2);
        s03 := !s03 +. (a0 *. b3);
        s10 := !s10 +. (a1 *. b0);
        s11 := !s11 +. (a1 *. b1);
        s12 := !s12 +. (a1 *. b2);
        s13 := !s13 +. (a1 *. b3)
      done;
      store_q dtype od o0 !s00;
      store_q dtype od (o0 + 1) !s01;
      store_q dtype od (o0 + 2) !s02;
      store_q dtype od (o0 + 3) !s03;
      store_q dtype od o1 !s10;
      store_q dtype od (o1 + 1) !s11;
      store_q dtype od (o1 + 2) !s12;
      store_q dtype od (o1 + 3) !s13
    done
  done;
  (* The elements outside the blocks: the last row of an odd [m], and
     the last [n mod 4] columns. *)
  for i = 0 to m - 1 do
    for j = (if i < m2 then n4 else 0) to n - 1 do
      let o = (i * n) + j in
      let s = ref (cd $ o) in
      for p = 0 to k - 1 do
        s := !s +. ((ad $ ((i * k) + p)) *. (bd $ ((p * bp) + (j * bj))))
      done;
      store_q dtype od o !s
    done
  done;
  out

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
    | RTensor a, RTensor b -> bind1 (RTensor (Tensor.map2 (float_binop kind) a b))
    | x, y -> bind1 (scalar_binop kind x y))
  | Op.Unop kind -> (
    match operand 0 with
    | RTensor t -> bind1 (RTensor (Tensor.map (float_unop kind) t))
    | RFloat f -> bind1 (RFloat (float_unop kind f))
    | RInt i -> (
      match kind with
      | Op.Neg -> bind1 (RInt (-i))
      | Op.Abs -> bind1 (RInt (abs i))
      | Op.Not -> bind1 (RInt (lnot i))
      | _ -> bind1 (RFloat (float_unop kind (Float.of_int i))))
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
          (if cmp_pred kind (Tensor.get_flat a i) (Tensor.get_flat b i) then 1.0 else 0.0)
      done;
      bind1 (RTensor out)
    | RInt a, RInt b -> bind1 (RBool (cmp_pred kind a b))
    | x, y -> bind1 (RBool (cmp_pred kind (as_float x) (as_float y))))
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
    bind1 (RTensor (broadcast_to (as_tensor (operand 0)) (Option.get (Types.shape_of target))))
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
  | Op.Reduce (kind, axis) -> bind1 (RTensor (reduce_tensor kind axis (as_tensor (operand 0))))
  | Op.Dot | Op.Wgmma_issue ->
    bind1
      (RTensor (dot_tiles (as_tensor (operand 0)) (as_tensor (operand 1)) (as_tensor (operand 2))))
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
