(** Convenience layer for constructing IR.

    A builder maintains a stack of blocks under construction; ops are
    appended to the innermost block. Region-introducing combinators
    ([for_], [if_], [warp_group]) push a fresh block, run a callback to
    populate it, and pop. *)

open Tawa_tensor

type frame = { mutable rev_ops : Op.op list; params : Value.t list }

type t = { mutable stack : frame list }

let create () = { stack = [] }

let push_frame b params = b.stack <- { rev_ops = []; params } :: b.stack

let pop_frame b =
  match b.stack with
  | [] -> invalid_arg "Builder.pop_frame: empty stack"
  | f :: rest ->
    b.stack <- rest;
    Op.block ~params:f.params (List.rev f.rev_ops)

let append b op =
  (match b.stack with
  | [] -> invalid_arg "Builder.append: no open block"
  | f :: _ -> f.rev_ops <- op :: f.rev_ops);
  op

let emit0 b ?attrs ?regions opcode operands =
  ignore (append b (Op.mk ?attrs ?regions ~operands opcode))

let emit1 b ?attrs ?regions ?hint opcode operands ty =
  let r = Value.fresh ?hint ty in
  ignore (append b (Op.mk ?attrs ?regions ~operands ~results:[ r ] opcode));
  r

(* ---- arith ---- *)

let const_i b ?(dtype = Dtype.I32) i = emit1 b (Op.Const_int i) [] (Types.scalar dtype)
let const_f b ?(dtype = Dtype.F32) f = emit1 b (Op.Const_float f) [] (Types.scalar dtype)

let binop b kind x y =
  if not (Types.equal (Value.ty x) (Value.ty y)) then
    invalid_arg
      (Printf.sprintf "Builder.binop %s: operand types differ (%s vs %s)"
         (Op.binop_to_string kind)
         (Types.to_string (Value.ty x))
         (Types.to_string (Value.ty y)));
  emit1 b (Op.Binop kind) [ x; y ] (Value.ty x)

let add b x y = binop b Op.Add x y
let sub b x y = binop b Op.Sub x y
let mul b x y = binop b Op.Mul x y
let div b x y = binop b Op.Div x y
let rem b x y = binop b Op.Rem x y
let min_ b x y = binop b Op.Min x y
let max_ b x y = binop b Op.Max x y

let unop b kind x = emit1 b (Op.Unop kind) [ x ] (Value.ty x)
let exp b x = unop b Op.Exp x
let exp2 b x = unop b Op.Exp2 x

let cmp b pred x y =
  let result_ty =
    match Value.ty x with
    | Types.TTensor { shape; _ } -> Types.tensor shape Dtype.I1
    | _ -> Types.i1
  in
  emit1 b (Op.Cmp pred) [ x; y ] result_ty

let select b c x y = emit1 b Op.Select [ c; x; y ] (Value.ty x)

let cast b x ty = emit1 b Op.Cast [ x ] ty

(* ---- program ids ---- *)

(* Grids have three axes (x, y, z). *)
let grid_axis what axis =
  if axis < 0 || axis > 2 then
    invalid_arg (Printf.sprintf "Builder.%s: axis %d outside 0..2" what axis)

let program_id b axis =
  grid_axis "program_id" axis;
  emit1 b ~hint:"pid" (Op.Program_id axis) [] Types.i32

let num_programs b axis =
  grid_axis "num_programs" axis;
  emit1 b (Op.Num_programs axis) [] Types.i32

(* ---- tile creation ---- *)

(* Tile shapes enter the IR here and at [tma_load]: a tile has at
   least one element along every axis. *)
let tile_shape what shape =
  if List.exists (fun d -> d < 1) shape then
    invalid_arg
      (Printf.sprintf "Builder.%s: tile dimensions must be at least 1, got [%s]" what
         (String.concat ", " (List.map string_of_int shape)))

let splat b x shape =
  tile_shape "splat" shape;
  match Value.ty x with
  | Types.TScalar d -> emit1 b Op.Splat [ x ] (Types.tensor shape d)
  | ty -> invalid_arg ("Builder.splat: scalar expected, got " ^ Types.to_string ty)

let zeros b shape dtype =
  let z = const_f b ~dtype:Dtype.F32 0.0 in
  let z = if Dtype.equal dtype Dtype.F32 then z else cast b z (Types.scalar dtype) in
  splat b z shape

let iota b n =
  tile_shape "iota" [ n ];
  emit1 b Op.Iota [] (Types.tensor [ n ] Dtype.I32)

let broadcast b x shape =
  tile_shape "broadcast" shape;
  match Value.ty x with
  | Types.TTensor { dtype; _ } -> emit1 b Op.Broadcast [ x ] (Types.tensor shape dtype)
  | ty -> invalid_arg ("Builder.broadcast: tensor expected, got " ^ Types.to_string ty)

let expand_dims b x axis =
  match Value.ty x with
  | Types.TTensor { shape; dtype } ->
    let rec insert i = function
      | rest when i = axis -> 1 :: rest
      | [] -> invalid_arg "Builder.expand_dims: axis out of range"
      | d :: rest -> d :: insert (i + 1) rest
    in
    emit1 b (Op.Expand_dims axis) [ x ] (Types.tensor (insert 0 shape) dtype)
  | ty -> invalid_arg ("Builder.expand_dims: tensor expected, got " ^ Types.to_string ty)

let reshape b x shape =
  tile_shape "reshape" shape;
  match Value.ty x with
  | Types.TTensor { dtype; _ } -> emit1 b Op.Reshape [ x ] (Types.tensor shape dtype)
  | ty -> invalid_arg ("Builder.reshape: tensor expected, got " ^ Types.to_string ty)

let trans b x =
  match Value.ty x with
  | Types.TTensor { shape = [ m; n ]; dtype } ->
    emit1 b Op.Trans [ x ] (Types.tensor [ n; m ] dtype)
  | Types.TMemDesc { shape = [ m; n ]; dtype } ->
    emit1 b Op.Trans [ x ] (Types.memdesc [ n; m ] dtype)
  | ty -> invalid_arg ("Builder.trans: 2-D tensor expected, got " ^ Types.to_string ty)

(* ---- tile compute ---- *)

let reduce b kind axis x =
  match Value.ty x with
  | Types.TTensor { shape; dtype } ->
    let shape' = List.filteri (fun i _ -> i <> axis) shape in
    emit1 b (Op.Reduce (kind, axis)) [ x ] (Types.tensor shape' dtype)
  | ty -> invalid_arg ("Builder.reduce: tensor expected, got " ^ Types.to_string ty)

let dot b a bb acc =
  (match (Value.ty a, Value.ty bb, Value.ty acc) with
  | ( (Types.TTensor { shape = [ m; k ]; _ } | Types.TMemDesc { shape = [ m; k ]; _ }),
      (Types.TTensor { shape = [ k'; n ]; _ } | Types.TMemDesc { shape = [ k'; n ]; _ }),
      Types.TTensor { shape = [ m'; n' ]; _ } )
    when k = k' && m = m' && n = n' ->
    ()
  | ta, tb, tc ->
    invalid_arg
      (Printf.sprintf "Builder.dot: bad shapes %s x %s -> %s" (Types.to_string ta)
         (Types.to_string tb) (Types.to_string tc)));
  emit1 b ~hint:"acc" Op.Dot [ a; bb; acc ] (Value.ty acc)

(* ---- memory ---- *)

let make_tensor_desc b ptr ~sizes ~strides ~dtype =
  let dims = List.length sizes in
  if List.length strides <> dims then
    invalid_arg "Builder.make_tensor_desc: sizes/strides arity mismatch";
  emit1 b ~hint:"desc" Op.Make_tensor_desc (ptr :: (sizes @ strides))
    (Types.tensor_desc dims dtype)

let tma_load b desc ~offsets ~shape =
  tile_shape "tma_load" shape;
  match Value.ty desc with
  | Types.TTensorDesc { dtype; dims } ->
    if List.length offsets <> dims then
      invalid_arg "Builder.tma_load: offsets arity mismatch";
    emit1 b ~hint:"tile" Op.Tma_load (desc :: offsets) (Types.tensor shape dtype)
  | ty -> invalid_arg ("Builder.tma_load: descriptor expected, got " ^ Types.to_string ty)

let tma_store b desc ~offsets tile =
  match Value.ty desc with
  | Types.TTensorDesc { dims; _ } ->
    if List.length offsets <> dims then
      invalid_arg "Builder.tma_store: offsets arity mismatch";
    emit0 b Op.Tma_store ((desc :: offsets) @ [ tile ])
  | ty -> invalid_arg ("Builder.tma_store: descriptor expected, got " ^ Types.to_string ty)

let local_alloc b tile =
  match Value.ty tile with
  | Types.TTensor { shape; dtype } ->
    emit1 b ~hint:"smem" Op.Local_alloc [ tile ] (Types.memdesc shape dtype)
  | ty -> invalid_arg ("Builder.local_alloc: tensor expected, got " ^ Types.to_string ty)

let local_load b md =
  match Value.ty md with
  | Types.TMemDesc { shape; dtype } ->
    emit1 b Op.Local_load [ md ] (Types.tensor shape dtype)
  | ty -> invalid_arg ("Builder.local_load: memdesc expected, got " ^ Types.to_string ty)

(* ---- control flow ---- *)

(** [for_ b ~lb ~ub ~step ~inits body] builds an [scf.for]. The [body]
    callback receives the induction variable and the iteration values
    and must return the yielded values; results are the loop-carried
    values after the final iteration. *)
let for_ b ~lb ~ub ~step ~inits body =
  let iv = Value.fresh ~hint:"iv" Types.i32 in
  let iters = List.map (fun v -> Value.fresh ~hint:"iter" (Value.ty v)) inits in
  push_frame b (iv :: iters);
  let yielded = body iv iters in
  emit0 b Op.Yield yielded;
  let blk = pop_frame b in
  let results = List.map (fun v -> Value.fresh (Value.ty v)) inits in
  ignore
    (append b
       (Op.mk Op.For
          ~operands:(lb :: ub :: step :: inits)
          ~results
          ~regions:[ Op.region [ blk ] ]));
  results

(** [if_ b cond ~result_tys then_ else_] builds an [scf.if] whose
    branches yield values of [result_tys]. *)
let if_ b cond ~result_tys then_ else_ =
  push_frame b [];
  let tvals = then_ () in
  emit0 b Op.Yield tvals;
  let tblk = pop_frame b in
  push_frame b [];
  let evals = else_ () in
  emit0 b Op.Yield evals;
  let eblk = pop_frame b in
  let results = List.map Value.fresh result_tys in
  ignore
    (append b
       (Op.mk Op.If ~operands:[ cond ] ~results
          ~regions:[ Op.region [ tblk ]; Op.region [ eblk ] ]));
  results

(* ---- kernels ---- *)

(** [kernel name params f] builds a kernel: [f] receives the builder and
    the freshly created parameter values. *)
let kernel name (params : (string * Types.ty) list) f =
  let b = create () in
  let pvals = List.map (fun (n, ty) -> Value.fresh ~hint:n ty) params in
  push_frame b [];
  f b pvals;
  let blk = pop_frame b in
  Kernel.create ~name ~params:pvals ~body:(Op.region [ blk ])
