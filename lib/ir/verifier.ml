(** IR well-formedness checking.

    Verifies SSA discipline (single definition, defined-before-use with
    lexical region scoping), per-opcode typing rules, structured
    control-flow agreement (for/if/yield arities and types), and aref
    protocol shape (put/get/consumed arities against the channel's
    payload). Passes run the verifier after every transformation in
    tests. *)

open Tawa_tensor

exception Ill_formed of string

let fail fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

(* [check] takes a constant message. A check whose message needs
   formatting tests its condition first and calls [fail], so a passing
   check never builds a string. *)
let check cond msg = if not cond then raise (Ill_formed msg)

type scope = { mutable defined : Value.Set.t }

let define scope v =
  if Value.Set.mem v scope.defined then
    fail "value %s defined twice" (Value.name v);
  scope.defined <- Value.Set.add v scope.defined

let require_defined scope op v =
  if not (Value.Set.mem v scope.defined) then
    fail "op %s uses undefined value %s" (Op.opcode_name op.Op.opcode) (Value.name v)

let scalar_ty op v =
  match Value.ty v with
  | Types.TScalar d -> d
  | ty ->
    fail "op %s expects scalar operand, got %s" (Op.opcode_name op.Op.opcode)
      (Types.to_string ty)

let tensor_shape op v =
  match Value.ty v with
  | Types.TTensor { shape; _ } -> shape
  | ty ->
    fail "op %s expects tensor operand, got %s" (Op.opcode_name op.Op.opcode)
      (Types.to_string ty)

let result1 op =
  match op.Op.results with
  | [ r ] -> r
  | rs -> fail "op %s must have one result, has %d" (Op.opcode_name op.Op.opcode) (List.length rs)

let no_results op =
  match op.Op.results with
  | [] -> ()
  | _ -> fail "op %s must have no results" (Op.opcode_name op.Op.opcode)

(* Typing rules for each op; operands are already known to be defined. *)
let check_op_types (op : Op.op) =
  let ops = op.operands in
  match (op.opcode, ops) with
  | Op.Const_int _, [] ->
    let r = result1 op in
    check (Types.is_scalar (Value.ty r)) "constant result must be scalar"
  | Op.Const_float _, [] ->
    let r = result1 op in
    check (Types.is_scalar (Value.ty r)) "constant result must be scalar"
  | (Op.Const_int _ | Op.Const_float _), _ -> fail "constant takes no operands"
  | Op.Binop _, [ x; y ] ->
    let r = result1 op in
    if not (Types.equal (Value.ty x) (Value.ty y) && Types.equal (Value.ty x) (Value.ty r))
    then
      fail "binop operand/result types must agree (%s, %s -> %s)"
        (Types.to_string (Value.ty x)) (Types.to_string (Value.ty y))
        (Types.to_string (Value.ty r))
  | Op.Binop _, _ -> fail "binop takes two operands"
  | Op.Unop _, [ x ] ->
    let r = result1 op in
    check (Types.equal (Value.ty x) (Value.ty r)) "unop types must agree"
  | Op.Unop _, _ -> fail "unop takes one operand"
  | Op.Cmp _, [ x; y ] ->
    let r = result1 op in
    check (Types.equal (Value.ty x) (Value.ty y)) "cmp operands must agree";
    (match (Value.ty x, Value.ty r) with
    | Types.TScalar _, Types.TScalar Dtype.I1 -> ()
    | Types.TTensor { shape; _ }, Types.TTensor { dtype = Dtype.I1; shape = shape' }
      when shape = shape' ->
      ()
    | _, ty -> fail "cmp result must be i1-typed to match operands, got %s" (Types.to_string ty))
  | Op.Cmp _, _ -> fail "cmp takes two operands"
  | Op.Select, [ c; x; y ] ->
    let r = result1 op in
    check (Types.equal (Value.ty x) (Value.ty y)) "select branches must agree";
    check (Types.equal (Value.ty x) (Value.ty r)) "select result must match branches";
    (match Value.ty c with
    | Types.TScalar Dtype.I1 | Types.TTensor { dtype = Dtype.I1; _ } -> ()
    | ty -> fail "select condition must be i1, got %s" (Types.to_string ty))
  | Op.Select, _ -> fail "select takes three operands"
  | Op.Cast, [ _ ] -> ignore (result1 op)
  | Op.Cast, _ -> fail "cast takes one operand"
  | (Op.Program_id _ | Op.Num_programs _), [] ->
    let r = result1 op in
    check (Types.equal (Value.ty r) Types.i32) "program_id result must be i32"
  | (Op.Program_id _ | Op.Num_programs _), _ -> fail "program_id takes no operands"
  | Op.Splat, [ x ] ->
    let r = result1 op in
    let d = scalar_ty op x in
    (match Value.ty r with
    | Types.TTensor { dtype; _ } when Dtype.equal d dtype -> ()
    | ty -> fail "splat result dtype mismatch: %s" (Types.to_string ty))
  | Op.Splat, _ -> fail "splat takes one operand"
  | Op.Iota, [] ->
    let r = result1 op in
    (match Value.ty r with
    | Types.TTensor { shape = [ _ ]; dtype = Dtype.I32 } -> ()
    | ty -> fail "iota result must be 1-D i32 tensor, got %s" (Types.to_string ty))
  | Op.Iota, _ -> fail "iota takes no operands"
  | Op.Broadcast, [ x ] ->
    let r = result1 op in
    let sx = tensor_shape op x and sr = tensor_shape op r in
    check (List.length sx = List.length sr) "broadcast rank mismatch";
    List.iter2
      (fun a b ->
        if not (a = b || a = 1) then fail "broadcast: dim %d cannot stretch to %d" a b)
      sx sr
  | Op.Broadcast, _ -> fail "broadcast takes one operand"
  | Op.Expand_dims axis, [ x ] ->
    let r = result1 op in
    let sx = tensor_shape op x and sr = tensor_shape op r in
    check (List.length sr = List.length sx + 1) "expand_dims rank";
    check (axis >= 0 && axis <= List.length sx) "expand_dims axis";
    check (List.nth sr axis = 1) "expand_dims inserted dim must be 1"
  | Op.Expand_dims _, _ -> fail "expand_dims takes one operand"
  | Op.Reshape, [ x ] ->
    let r = result1 op in
    let nx = List.fold_left ( * ) 1 (tensor_shape op x) in
    let nr = List.fold_left ( * ) 1 (tensor_shape op r) in
    if nx <> nr then fail "reshape must preserve element count (%d vs %d)" nx nr
  | Op.Reshape, _ -> fail "reshape takes one operand"
  | Op.Trans, [ x ] ->
    (* Register tiles transpose to register tiles; SMEM views transpose
       to SMEM views (WGMMA reads transposed operands via descriptor
       strides, so a memdesc transpose is free). *)
    let r = result1 op in
    (match (Value.ty x, Value.ty r) with
    | Types.TTensor { shape = [ m; n ]; dtype = d1 },
      Types.TTensor { shape = [ n'; m' ]; dtype = d2 }
    | Types.TMemDesc { shape = [ m; n ]; dtype = d1 },
      Types.TMemDesc { shape = [ n'; m' ]; dtype = d2 }
      when m = m' && n = n' && Dtype.equal d1 d2 ->
      ()
    | _ -> fail "trans must swap a 2-D shape")
  | Op.Trans, _ -> fail "trans takes one operand"
  | Op.Reduce (_, axis), [ x ] ->
    let r = result1 op in
    let sx = tensor_shape op x and sr = tensor_shape op r in
    check (axis >= 0 && axis < List.length sx) "reduce axis out of range";
    let expected = List.filteri (fun i _ -> i <> axis) sx in
    check (sr = expected) "reduce result shape mismatch"
  | Op.Reduce _, _ -> fail "reduce takes one operand"
  | Op.Dot, [ a; b; acc ] ->
    let r = result1 op in
    let shape_of v =
      match Value.ty v with
      | Types.TTensor { shape; _ } | Types.TMemDesc { shape; _ } -> shape
      | ty -> fail "dot operand must be tensor or memdesc, got %s" (Types.to_string ty)
    in
    (match (shape_of a, shape_of b, shape_of acc, tensor_shape op r) with
    | [ m; k ], [ k'; n ], [ m'; n' ], [ m''; n'' ]
      when k = k' && m = m' && n = n' && m = m'' && n = n'' ->
      ()
    | _ -> fail "dot shape mismatch")
  | Op.Dot, _ -> fail "dot takes three operands"
  | Op.Make_tensor_desc, ptr :: rest ->
    let r = result1 op in
    (match (Value.ty ptr, Value.ty r) with
    | Types.TPtr d, Types.TTensorDesc { dims; dtype } ->
      check (Dtype.equal d dtype) "descriptor dtype must match pointer";
      check (List.length rest = 2 * dims) "descriptor needs sizes and strides per dim"
    | _ -> fail "make_tensor_desc: ptr -> tdesc expected")
  | Op.Make_tensor_desc, _ -> fail "make_tensor_desc takes at least a pointer"
  | Op.Tma_load, desc :: offsets ->
    let r = result1 op in
    (match Value.ty desc with
    | Types.TTensorDesc { dims; dtype } ->
      check (List.length offsets = dims) "tma_load offsets arity";
      (match Value.ty r with
      | Types.TTensor { dtype = d; _ } ->
        check (Dtype.equal d dtype) "tma_load result dtype"
      | ty -> fail "tma_load result must be tensor, got %s" (Types.to_string ty))
    | ty -> fail "tma_load first operand must be descriptor, got %s" (Types.to_string ty))
  | Op.Tma_load, _ -> fail "tma_load takes a descriptor"
  | Op.Tma_store, desc :: rest ->
    no_results op;
    (match (Value.ty desc, List.rev rest) with
    | Types.TTensorDesc { dims; _ }, _tile :: offsets ->
      check (List.length offsets = dims) "tma_store offsets arity"
    | _ -> fail "tma_store operands malformed")
  | Op.Tma_store, _ -> fail "tma_store takes operands"
  | Op.Local_alloc, [ x ] ->
    let r = result1 op in
    (match (Value.ty x, Value.ty r) with
    | Types.TTensor a, Types.TMemDesc b when a.shape = b.shape && Dtype.equal a.dtype b.dtype
      ->
      ()
    | _ -> fail "local_alloc: tensor -> memdesc of same shape")
  | Op.Local_alloc, _ -> fail "local_alloc takes one operand"
  | Op.Local_load, [ x ] ->
    let r = result1 op in
    (match (Value.ty x, Value.ty r) with
    | Types.TMemDesc a, Types.TTensor b when a.shape = b.shape && Dtype.equal a.dtype b.dtype
      ->
      ()
    | _ -> fail "local_load: memdesc -> tensor of same shape")
  | Op.Local_load, _ -> fail "local_load takes one operand"
  | Op.For, lb :: ub :: step :: inits ->
    check
      (Types.equal (Value.ty lb) Types.i32
      && Types.equal (Value.ty ub) Types.i32
      && Types.equal (Value.ty step) Types.i32)
      "for bounds must be i32";
    (match op.regions with
    | [ r ] ->
      let blk = Op.entry_block r in
      (match blk.params with
      | iv :: iters ->
        check (Types.equal (Value.ty iv) Types.i32) "for induction variable must be i32";
        check (List.length iters = List.length inits) "for iter arity";
        List.iter2
          (fun it init ->
            check (Types.equal (Value.ty it) (Value.ty init)) "for iter type mismatch")
          iters inits;
        check (List.length op.results = List.length inits) "for result arity";
        List.iter2
          (fun res init ->
            check (Types.equal (Value.ty res) (Value.ty init)) "for result type mismatch")
          op.results inits;
        (match List.rev blk.ops with
        | { Op.opcode = Op.Yield; operands = ys; _ } :: _ ->
          check (List.length ys = List.length inits) "for yield arity";
          List.iter2
            (fun y init ->
              check (Types.equal (Value.ty y) (Value.ty init)) "for yield type mismatch")
            ys inits
        | _ -> fail "for body must end in scf.yield")
      | [] -> fail "for body must start with the induction variable")
    | _ -> fail "for takes exactly one region")
  | Op.For, _ -> fail "for takes lb, ub, step"
  | Op.Yield, _ -> no_results op
  | Op.If, [ c ] ->
    (match Value.ty c with
    | Types.TScalar Dtype.I1 -> ()
    | ty -> fail "if condition must be i1, got %s" (Types.to_string ty));
    (match op.regions with
    | [ t; e ] ->
      let check_branch r =
        match List.rev (Op.entry_block r).Op.ops with
        | { Op.opcode = Op.Yield; operands = ys; _ } :: _ ->
          check (List.length ys = List.length op.results) "if yield arity";
          List.iter2
            (fun y res ->
              check (Types.equal (Value.ty y) (Value.ty res)) "if yield type mismatch")
            ys op.results
        | _ -> fail "if branch must end in scf.yield"
      in
      check_branch t;
      check_branch e
    | _ -> fail "if takes exactly two regions")
  | Op.If, _ -> fail "if takes one operand"
  | Op.Warp_group, [] ->
    no_results op;
    check (op.regions <> []) "warp_group needs at least one region"
  | Op.Warp_group, _ -> fail "warp_group takes no operands"
  | Op.Aref_create depth, [] ->
    let r = result1 op in
    (match Value.ty r with
    | Types.TAref { depth = d; _ } -> check (d = depth) "aref depth mismatch"
    | ty -> fail "aref_create result must be aref, got %s" (Types.to_string ty))
  | Op.Aref_create _, _ -> fail "aref_create takes no operands"
  | Op.Aref_put, aref :: slot :: payload ->
    no_results op;
    (match Value.ty aref with
    | Types.TAref { payload = tys; _ } ->
      check (Types.equal (Value.ty slot) Types.i32) "aref slot must be i32";
      check (List.length payload = List.length tys) "aref_put payload arity";
      List.iter2
        (fun v ty ->
          (* Producers publish register tiles or memdescs; the channel
             stores the tile, so shape/dtype must match. *)
          let tile_of = function
            | Types.TTensor { shape; dtype } | Types.TMemDesc { shape; dtype } ->
              Some (shape, dtype)
            | _ -> None
          in
          match (tile_of (Value.ty v), tile_of ty) with
          | Some (s1, d1), Some (s2, d2) ->
            check (s1 = s2 && Dtype.equal d1 d2) "aref_put payload type mismatch"
          | _, _ ->
            let tv = Value.ty v and tp = ty in
            if not (Types.equal tv tp) then
              fail "aref_put payload type mismatch (%s vs %s)" (Types.to_string tv)
                (Types.to_string tp))
        payload tys
    | ty -> fail "aref_put first operand must be aref, got %s" (Types.to_string ty))
  | Op.Aref_put, _ -> fail "aref_put takes aref, slot, payload"
  | Op.Aref_get, [ aref; slot ] ->
    (match Value.ty aref with
    | Types.TAref { payload = tys; _ } ->
      check (Types.equal (Value.ty slot) Types.i32) "aref slot must be i32";
      check (List.length op.results = List.length tys) "aref_get result arity";
      List.iter2
        (fun r ty ->
          let tile_of = function
            | Types.TTensor { shape; dtype } | Types.TMemDesc { shape; dtype } ->
              Some (shape, dtype)
            | _ -> None
          in
          match (tile_of (Value.ty r), tile_of ty) with
          | Some (s1, d1), Some (s2, d2) ->
            check (s1 = s2 && Dtype.equal d1 d2) "aref_get result type mismatch"
          | _, _ ->
            let tr = Value.ty r and tp = ty in
            if not (Types.equal tr tp) then
              fail "aref_get result type mismatch (%s vs %s)" (Types.to_string tr)
                (Types.to_string tp))
        op.results tys
    | ty -> fail "aref_get first operand must be aref, got %s" (Types.to_string ty))
  | Op.Aref_get, _ -> fail "aref_get takes aref and slot"
  | Op.Aref_consumed, [ aref; slot ] ->
    no_results op;
    check (Types.is_aref (Value.ty aref)) "aref_consumed first operand must be aref";
    check (Types.equal (Value.ty slot) Types.i32) "aref slot must be i32"
  | Op.Aref_consumed, _ -> fail "aref_consumed takes aref and slot"
  | Op.Wgmma_issue, [ a; b; acc ] ->
    let r = result1 op in
    check
      (Types.equal (Value.ty acc) (Value.ty r))
      "wgmma_issue result must match accumulator";
    let ok v = Types.is_tensor (Value.ty v) || Types.is_memdesc (Value.ty v) in
    check (ok a && ok b) "wgmma_issue operands must be tiles"
  | Op.Wgmma_issue, _ -> fail "wgmma_issue takes a, b, acc"
  | Op.Wgmma_wait _, [] -> no_results op
  | Op.Wgmma_wait _, _ -> fail "wgmma_wait takes no operands"

(* Scoped SSA walk. Regions see values defined in enclosing scopes
   (MLIR's IsolatedFromAbove is *not* assumed, matching scf.for). *)
let rec verify_block scope (b : Op.block) =
  List.iter (define scope) b.params;
  List.iter
    (fun (op : Op.op) ->
      List.iter (require_defined scope op) op.operands;
      check_op_types op;
      List.iter
        (fun (r : Op.region) ->
          let saved = scope.defined in
          List.iter (verify_block scope) r.blocks;
          scope.defined <- saved)
        op.regions;
      List.iter (define scope) op.results)
    b.ops

let verify_kernel (k : Kernel.t) =
  let scope = { defined = Value.Set.empty } in
  List.iter (define scope) k.params;
  List.iter (verify_block scope) k.body.Op.blocks

(** [verify k] raises {!Ill_formed} with a diagnostic if [k] is
    malformed. *)
let verify = verify_kernel
