(** Elaboration of the textual DSL into the tile IR.

    Scalars are auto-splatted when combined with tiles (the usual
    Triton convenience); everything else maps one-to-one onto builder
    calls. The elaborator performs local type checking and reports
    positions. *)

open Tawa_tensor
open Tawa_ir
open Ast

exception Elab_error of string * pos

let fail pos fmt = Format.kasprintf (fun s -> raise (Elab_error (s, pos))) fmt

(* The builder validates operand kinds, shapes and arities; report its
   rejections at the source position of the call that made them. *)
let at pos f = try f () with Invalid_argument msg -> fail pos "%s" msg

let dtype_of_ann pos (d : dtype_ann) =
  match Dtype.of_string d with
  | Some d -> d
  | None -> fail pos "unknown dtype '%s'" d

let ty_of_ann pos = function
  | Ty_scalar d -> Types.scalar (dtype_of_ann pos d)
  | Ty_ptr d -> Types.ptr (dtype_of_ann pos d)

type env = { mutable vars : (string * Value.t) list }

let lookup env pos name =
  match List.assoc_opt name env.vars with
  | Some v -> v
  | None -> fail pos "unbound variable '%s'" name

let bind env name v = env.vars <- (name, v) :: List.remove_assoc name env.vars

let shape_ints pos (es : expr list) =
  List.map
    (fun (e : expr) ->
      match e.desc with
      | Int i -> i
      | _ -> fail pos "shape elements must be integer literals")
    es

(* Reconcile two operands of a binary op: auto-splat scalars against
   tiles, unify scalar dtypes by promoting ints to floats. *)
let unify b pos x y =
  match (Value.ty x, Value.ty y) with
  | tx, ty when Types.equal tx ty -> (x, y)
  | Types.TScalar dx, Types.TTensor { shape; dtype } ->
    let x = if Dtype.equal dx dtype then x else Builder.cast b x (Types.scalar dtype) in
    (Builder.splat b x shape, y)
  | Types.TTensor { shape; dtype }, Types.TScalar dy ->
    let y = if Dtype.equal dy dtype then y else Builder.cast b y (Types.scalar dtype) in
    (x, Builder.splat b y shape)
  | Types.TScalar Dtype.I32, Types.TScalar d when Dtype.is_float d ->
    (Builder.cast b x (Types.scalar d), y)
  | Types.TScalar d, Types.TScalar Dtype.I32 when Dtype.is_float d ->
    (x, Builder.cast b y (Types.scalar d))
  | Types.TTensor t1, Types.TTensor t2 when t1.shape = t2.shape ->
    (* same shape, different dtype: promote toward f32 *)
    let target = Types.tensor t1.shape Dtype.F32 in
    (Builder.cast b x target, Builder.cast b y target)
  | tx, ty ->
    fail pos "operands of incompatible types %s and %s" (Types.to_string tx)
      (Types.to_string ty)

let ir_binop = function
  | Badd -> Op.Add | Bsub -> Op.Sub | Bmul -> Op.Mul | Bdiv -> Op.Div | Brem -> Op.Rem
  | Blt | Ble | Bgt | Bge | Beq | Bne -> assert false

let ir_cmp = function
  | Blt -> Op.Lt | Ble -> Op.Le | Bgt -> Op.Gt | Bge -> Op.Ge | Beq -> Op.Eq | Bne -> Op.Ne
  | Badd | Bsub | Bmul | Bdiv | Brem -> assert false

(* Offsets, loop bounds and steps count elements and iterations, so
   they must be i32: downstream, a float offset runs without an error. *)
let rec expect_i32 b env what (e : expr) : Value.t =
  let v = elab_expr b env e in
  if not (Types.equal (Value.ty v) Types.i32) then
    fail e.pos "%s must be i32, got %s" what (Types.to_string (Value.ty v));
  v

and elab_expr b env (e : expr) : Value.t =
  match e.desc with
  | Int i -> Builder.const_i b i
  | Float f -> Builder.const_f b f
  | Var name -> lookup env e.pos name
  | Neg inner ->
    let v = elab_expr b env inner in
    Builder.unop b Op.Neg v
  | Bin (op, l, r) ->
    let x = elab_expr b env l and y = elab_expr b env r in
    let x, y = unify b e.pos x y in
    (match op with
    | Badd | Bsub | Bmul | Bdiv | Brem -> Builder.binop b (ir_binop op) x y
    | Blt | Ble | Bgt | Bge | Beq | Bne -> Builder.cmp b (ir_cmp op) x y)
  | Call (fname, args) -> elab_call b env e.pos fname args

and elab_call b env pos fname args : Value.t =
  let exprs () =
    List.map (function Apos e -> e | _ -> fail pos "%s expects expressions" fname) args
  in
  let one () = match exprs () with [ e ] -> elab_expr b env e | _ -> fail pos "%s expects one argument" fname in
  let two () =
    match exprs () with
    | [ a; c ] -> (elab_expr b env a, elab_expr b env c)
    | _ -> fail pos "%s expects two arguments" fname
  in
  (* Code generation has these functions for tiles only. *)
  let tile_unop o =
    let x = one () in
    if not (Types.is_tensor (Value.ty x)) then
      fail pos "%s expects a tile, got %s" fname (Types.to_string (Value.ty x));
    Builder.unop b o x
  in
  at pos @@ fun () ->
  match (fname, args) with
  | "program_id", [ Apos { desc = Int axis; _ } ] -> Builder.program_id b axis
  | "num_programs", [ Apos { desc = Int axis; _ } ] -> Builder.num_programs b axis
  | "descriptor", [ Apos ptr; Alist sizes; Alist strides ] ->
    let ptr_v = elab_expr b env ptr in
    let dtype =
      match Value.ty ptr_v with
      | Types.TPtr d -> d
      | ty -> fail pos "descriptor expects a pointer, got %s" (Types.to_string ty)
    in
    Builder.make_tensor_desc b ptr_v
      ~sizes:(List.map (elab_expr b env) sizes)
      ~strides:(List.map (elab_expr b env) strides)
      ~dtype
  | "load", [ Apos desc; Alist offs; Alist shape ] ->
    Builder.tma_load b (elab_expr b env desc)
      ~offsets:(List.map (expect_i32 b env "load offsets") offs)
      ~shape:(shape_ints pos shape)
  | "zeros", [ Alist shape; Adtype d ] ->
    Builder.zeros b (shape_ints pos shape) (dtype_of_ann pos d)
  | "full", [ Alist shape; Apos v; Adtype d ] ->
    let dtype = dtype_of_ann pos d in
    let s = elab_expr b env v in
    let s =
      if Types.equal (Value.ty s) (Types.scalar dtype) then s
      else Builder.cast b s (Types.scalar dtype)
    in
    Builder.splat b s (shape_ints pos shape)
  | "splat", [ Apos v; Alist shape ] ->
    Builder.splat b (elab_expr b env v) (shape_ints pos shape)
  | "arange", [ Apos { desc = Int n; _ } ] -> Builder.iota b n
  | "dot", [ Apos a; Apos c; Apos acc ] ->
    Builder.dot b (elab_expr b env a) (elab_expr b env c) (elab_expr b env acc)
  | "cast", [ Apos v; Adtype d ] ->
    let x = elab_expr b env v in
    let dtype = dtype_of_ann pos d in
    (match Value.ty x with
    | Types.TTensor { shape; _ } -> Builder.cast b x (Types.tensor shape dtype)
    | Types.TScalar _ -> Builder.cast b x (Types.scalar dtype)
    | ty -> fail pos "cannot cast %s" (Types.to_string ty))
  | "exp", _ -> tile_unop Op.Exp
  | "exp2", _ -> tile_unop Op.Exp2
  | "log", _ -> tile_unop Op.Log
  | "sqrt", _ -> tile_unop Op.Sqrt
  | "rsqrt", _ -> tile_unop Op.Rsqrt
  | "abs", _ -> tile_unop Op.Abs
  | "max", _ ->
    let x, y = two () in
    let x, y = unify b pos x y in
    Builder.max_ b x y
  | "min", _ ->
    let x, y = two () in
    let x, y = unify b pos x y in
    Builder.min_ b x y
  | "reduce_max", [ Apos v; Apos { desc = Int axis; _ } ] ->
    Builder.reduce b Op.Red_max axis (elab_expr b env v)
  | "reduce_min", [ Apos v; Apos { desc = Int axis; _ } ] ->
    Builder.reduce b Op.Red_min axis (elab_expr b env v)
  | "reduce_sum", [ Apos v; Apos { desc = Int axis; _ } ] ->
    Builder.reduce b Op.Red_sum axis (elab_expr b env v)
  | "trans", _ -> Builder.trans b (one ())
  | "broadcast", [ Apos v; Alist shape ] ->
    Builder.broadcast b (elab_expr b env v) (shape_ints pos shape)
  | "expand_dims", [ Apos v; Apos { desc = Int axis; _ } ] ->
    Builder.expand_dims b (elab_expr b env v) axis
  | "reshape", [ Apos v; Alist shape ] ->
    Builder.reshape b (elab_expr b env v) (shape_ints pos shape)
  | "select", [ Apos c; Apos x; Apos y ] ->
    let cv = elab_expr b env c in
    let xv = elab_expr b env x and yv = elab_expr b env y in
    let xv, yv = unify b pos xv yv in
    Builder.select b cv xv yv
  | _ ->
    fail pos "unknown function '%s' (or wrong argument shapes: %d args)" fname
      (List.length args)

let rec elab_stmt b env (s : stmt) : unit =
  match s.sdesc with
  | Assign (name, e) -> bind env name (elab_expr b env e)
  | Store args -> (
    match args with
    | [ Apos desc; Alist offs; Apos value ] ->
      at s.spos (fun () ->
          (* Code generation stores rank-1 and rank-2 tiles only. *)
          let v = elab_expr b env value in
          let dtype =
            match Value.ty v with
            | Types.TTensor { shape = [ _ ] | [ _; _ ]; dtype } -> dtype
            | ty ->
              fail value.pos "store expects a rank-1 or rank-2 tile, got %s"
                (Types.to_string ty)
          in
          (* A tile stored through a descriptor of another dtype
             lands wrong values: the conversion must be a cast. *)
          let same_dtype d =
            (match Value.ty d with
            | Types.TTensorDesc { dtype = held; _ } when not (Dtype.equal held dtype) ->
              fail value.pos "stored tile has dtype %s but the descriptor holds %s"
                (Dtype.to_string dtype) (Dtype.to_string held)
            | _ -> ());
            d
          in
          Builder.tma_store b (same_dtype (elab_expr b env desc))
            ~offsets:(List.map (expect_i32 b env "store offsets") offs)
            v)
    | _ -> fail s.spos "store expects (descriptor, [offsets], value)")
  | For { var; lo; hi; step; carried; body } ->
    let i32 = expect_i32 b env "loop bounds and step" in
    let lb = i32 lo in
    let ub = i32 hi in
    let step_v = match step with Some e -> i32 e | None -> Builder.const_i b 1 in
    let inits = List.map (fun n -> lookup env s.spos n) carried in
    let results =
      Builder.for_ b ~lb ~ub ~step:step_v ~inits (fun iv iters ->
          let saved = env.vars in
          bind env var iv;
          List.iter2 (fun n v -> bind env n v) carried iters;
          List.iter (elab_stmt b env) body;
          let yielded = List.map (fun n -> lookup env s.spos n) carried in
          env.vars <- saved;
          yielded)
    in
    List.iter2 (fun n v -> bind env n v) carried results
  | If { cond; carried; then_; else_ } ->
    let cv = elab_expr b env cond in
    let result_tys =
      List.map (fun n -> Value.ty (lookup env s.spos n)) carried
    in
    let branch stmts () =
      let saved = env.vars in
      List.iter (elab_stmt b env) stmts;
      let out = List.map (fun n -> lookup env s.spos n) carried in
      env.vars <- saved;
      out
    in
    let results = Builder.if_ b cv ~result_tys (branch then_) (branch else_) in
    List.iter2 (fun n v -> bind env n v) carried results

let elab_kernel (k : Ast.kernel) : Kernel.t =
  let params = List.map (fun p -> (p.pname, ty_of_ann k.kpos p.pty)) k.kparams in
  Builder.kernel k.kname params (fun b pvals ->
      let env = { vars = List.map2 (fun p v -> (p.pname, v)) k.kparams pvals } in
      List.iter (elab_stmt b env) k.kbody)

(** Parse and elaborate a source string; verifies every kernel. *)
let compile_string (src : string) : Kernel.t list =
  let prog = Parser.parse src in
  List.map
    (fun k ->
      let kernel = elab_kernel k in
      Verifier.verify kernel;
      kernel)
    prog

let compile_file (path : string) : Kernel.t list =
  let ic = open_in path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  compile_string src
