(** Code generation: tile IR -> machine programs, including the aref
    lowering of §III-E.

    [aref_create] allocates the slot buffers and the [empty]/[full]
    mbarrier arrays; [put] lowers to a wait on the empty barrier
    followed by TMA loads that arrive on the full barrier with the
    transaction count; [get] lowers to a blocking wait on the full
    barrier; [consumed] arrives on the empty barrier. Slot indices and
    barrier phase targets are derived from the monotonic iteration
    index ([slot = it mod D], [phase = it / D] — the parity mechanism).

    Kernels marked [sw_stages] (the Triton baseline) lower [put]
    to warp-issued [cp.async] copies tracked by per-ring completion
    counts instead of barriers.

    Consumer loops annotated [coarse_pipeline] are emitted as the
    three-stage assembly line of Algorithm 1, from the [stage] stamps
    the coarse pass put on their ops: the next iteration's [T] is
    issued asynchronously so the CUDA-core stage [C_j] overlaps
    tensor-core work, and [U_j] is left in flight into the next
    iteration. *)

open Tawa_tensor
open Tawa_ir

exception Codegen_error of string

let err fmt = Format.kasprintf (fun s -> raise (Codegen_error s)) fmt

type aref_info = {
  depth : int;
  payload_allocs : int list;
  payload_tiles : (int list * Dtype.t) list;
  empty_base : int; (* -1 in cp_async style *)
  full_base : int;  (* doubles as the ring id in cp_async style *)
  cp_style : bool;
}

type binding =
  | Bop of Isa.operand * Types.ty   (* scalar (register or immediate) *)
  | Btile of Isa.reg * Types.ty     (* register tile or TMA descriptor *)
  | Bsmem of Isa.smem_view * Types.ty
  | Baref of aref_info

(* Per-program allocation state, shared across streams. *)
type gstate = {
  mutable allocs : Isa.alloc list; (* reverse order *)
  mutable next_alloc : int;
  mutable arrive_counts : int list; (* reverse order, one per mbar *)
  mutable resettable : bool list; (* reverse order, one per mbar *)
  mutable mbar_labels : string list; (* reverse order, one per mbar *)
  mutable next_mbar : int;
  mutable ring_labels : string list; (* reverse order, one per ring *)
  mutable next_ring : int;
  opmeta : (int, string * int) Hashtbl.t;
      (* IR op id -> (opcode name, front-end source id): the profiler's
         map from emitted instructions back through the pass pipeline.
         Shared across streams (top-level ops lower once per stream). *)
}

let new_alloc g ~slots ~bytes ~label =
  let id = g.next_alloc in
  g.next_alloc <- id + 1;
  g.allocs <- { Isa.alloc_id = id; slots; bytes_per_slot = bytes; label } :: g.allocs;
  id

let new_mbars g ~count ~arrive ~resettable ~label =
  let base = g.next_mbar in
  g.next_mbar <- base + count;
  for i = 0 to count - 1 do
    g.arrive_counts <- arrive :: g.arrive_counts;
    g.resettable <- resettable :: g.resettable;
    g.mbar_labels <- label i :: g.mbar_labels
  done;
  base

(* Pending (deferred) TMA loads: loads whose only users are aref puts
   are materialized at the put site, targeting the slot directly. *)
type pending_load = {
  p_desc : Isa.operand;
  p_offs : Isa.operand list;
  p_rows : int;
  p_cols : int;
  p_dtype : Dtype.t;
}

type genv = {
  g : gstate;
  bind : binding Value.Tbl.t;
  pend : pending_load Value.Tbl.t;
  graph : Graph.t;
  mutable code : Isa.instr array;
  mutable src : int array; (* per emitted pc: IR op id, -1 = synthetic *)
  mutable len : int;
  mutable cur_oid : int;   (* op being lowered; scaffolding emitted while
                              generating a structured op charges to it *)
  mutable next_reg : int;
  coop : int;
  ldg : bool; (* naive build: loads go global -> registers *)
}

let create_genv g graph ~coop ~ldg =
  {
    g;
    bind = Value.Tbl.create 128;
    pend = Value.Tbl.create 8;
    graph;
    code = Array.make 64 Isa.Nop;
    src = Array.make 64 (-1);
    len = 0;
    cur_oid = -1;
    next_reg = 0;
    coop;
    ldg;
  }

let emit env (i : Isa.instr) =
  if env.len = Array.length env.code then begin
    let bigger = Array.make (2 * env.len) Isa.Nop in
    Array.blit env.code 0 bigger 0 env.len;
    env.code <- bigger;
    let bigger_src = Array.make (2 * env.len) (-1) in
    Array.blit env.src 0 bigger_src 0 env.len;
    env.src <- bigger_src
  end;
  env.code.(env.len) <- i;
  env.src.(env.len) <- env.cur_oid;
  env.len <- env.len + 1;
  env.len - 1

let here env = env.len
let patch env pos i = env.code.(pos) <- i

let fresh_reg env =
  let r = env.next_reg in
  env.next_reg <- r + 1;
  r

let lookup env v =
  match Value.Tbl.find_opt env.bind v with
  | Some b -> b
  | None -> err "codegen: unbound value %s" (Value.name v)

(* Scalar-or-register operand of a value. *)
let operand_of env v : Isa.operand =
  match lookup env v with
  | Bop (o, _) -> o
  | Btile (r, _) -> Isa.Reg r
  | Bsmem _ -> err "codegen: SMEM view %s used as scalar" (Value.name v)
  | Baref _ -> err "codegen: aref %s used as scalar" (Value.name v)

(* Register-tile operand; SMEM views are pulled to registers via lds. *)
let tile_operand env v : Isa.operand =
  match lookup env v with
  | Bop (o, _) -> o
  | Btile (r, _) -> Isa.Reg r
  | Bsmem (view, ty) ->
    let shape = Option.value (Types.shape_of ty) ~default:[] in
    let dtype = Option.get (Types.dtype_of ty) in
    let r = fresh_reg env in
    ignore (emit env (Isa.Lds { dst = r; src = view; shape; dtype }));
    Isa.Reg r
  | Baref _ -> err "codegen: aref used as tile"

let wgmma_src env v : Isa.wgmma_src =
  match lookup env v with
  | Bsmem (view, _) -> Isa.Wsmem view
  | Btile (r, _) -> Isa.Wreg r
  | Bop _ | Baref _ -> err "codegen: bad wgmma operand %s" (Value.name v)

let bind env v b = Value.Tbl.replace env.bind v b

let shape_of_val v = Option.value (Types.shape_of (Value.ty v)) ~default:[]
let dtype_of_val v = Option.get (Types.dtype_of (Value.ty v))
let elems_of_val v = Types.numel (Value.ty v)

(* Bind a fresh register result. *)
let def_reg env v =
  let r = fresh_reg env in
  (if Types.is_tensor (Value.ty v) || (match Value.ty v with Types.TTensorDesc _ -> true | _ -> false)
   then bind env v (Btile (r, Value.ty v))
   else bind env v (Bop (Isa.Reg r, Value.ty v)));
  r

(* slot = it mod D ; phase target computations. *)
let emit_slot env it_op depth =
  let r = fresh_reg env in
  ignore (emit env (Isa.Alu { op = Op.Rem; dst = r; a = it_op; b = Isa.Imm depth }));
  Isa.Reg r

let emit_cycle env it_op depth =
  let r = fresh_reg env in
  ignore (emit env (Isa.Alu { op = Op.Div; dst = r; a = it_op; b = Isa.Imm depth }));
  Isa.Reg r

(* ------------------------------------------------------------------ *)
(* Single-op lowering                                                   *)
(* ------------------------------------------------------------------ *)

let aref_of_value env v =
  match lookup env v with
  | Baref info -> info
  | _ -> err "codegen: expected aref binding for %s" (Value.name v)

let lower_put env (op : Op.op) =
  match op.Op.operands with
  | aref_v :: it_v :: payload ->
    let info = aref_of_value env aref_v in
    let it_op = operand_of env it_v in
    let slot = emit_slot env it_op info.depth in
    if info.cp_style then begin
      let n = List.length payload in
      List.iteri
        (fun i v ->
          let p =
            match Value.Tbl.find_opt env.pend v with
            | Some p -> p
            | None -> err "codegen: cp_async put payload %s is not a deferred load" (Value.name v)
          in
          ignore
            (emit env
               (Isa.Cp_async
                  {
                    ring = info.full_base;
                    desc = p.p_desc;
                    offs = p.p_offs;
                    dst = { Isa.alloc = List.nth info.payload_allocs i; slot };
                    rows = p.p_rows;
                    cols = p.p_cols;
                    dtype = p.p_dtype;
                    last = i = n - 1;
                  })))
        payload
    end
    else begin
      let cycle = emit_cycle env it_op info.depth in
      ignore
        (emit env
           (Isa.Mbar_wait { bar = { Isa.base = info.empty_base; index = slot }; target = cycle }));
      List.iteri
        (fun i v ->
          let p =
            match Value.Tbl.find_opt env.pend v with
            | Some p -> p
            | None -> err "codegen: put payload %s is not a deferred load" (Value.name v)
          in
          ignore
            (emit env
               (Isa.Tma_load
                  {
                    desc = p.p_desc;
                    offs = p.p_offs;
                    dst = { Isa.alloc = List.nth info.payload_allocs i; slot };
                    rows = p.p_rows;
                    cols = p.p_cols;
                    dtype = p.p_dtype;
                    full = { Isa.base = info.full_base; index = slot };
                  })))
        payload
    end
  | _ -> err "codegen: malformed aref_put"

let lower_get env (op : Op.op) =
  match op.Op.operands with
  | [ aref_v; it_v ] ->
    let info = aref_of_value env aref_v in
    let it_op = operand_of env it_v in
    let slot = emit_slot env it_op info.depth in
    (if info.cp_style then begin
       let tgt = fresh_reg env in
       ignore (emit env (Isa.Alu { op = Op.Add; dst = tgt; a = it_op; b = Isa.Imm 1 }));
       ignore (emit env (Isa.Cp_wait_ring { ring = info.full_base; target = Isa.Reg tgt }))
     end
     else begin
       let cycle = emit_cycle env it_op info.depth in
       let tgt = fresh_reg env in
       ignore (emit env (Isa.Alu { op = Op.Add; dst = tgt; a = cycle; b = Isa.Imm 1 }));
       ignore
         (emit env
            (Isa.Mbar_wait
               { bar = { Isa.base = info.full_base; index = slot }; target = Isa.Reg tgt }))
     end);
    List.iteri
      (fun i r ->
        bind env r
          (Bsmem
             ( Isa.view_of_slot { Isa.alloc = List.nth info.payload_allocs i; slot },
               Value.ty r )))
      op.Op.results
  | _ -> err "codegen: malformed aref_get"

let lower_consumed env (op : Op.op) =
  match op.Op.operands with
  | [ aref_v; it_v ] ->
    let info = aref_of_value env aref_v in
    if not info.cp_style then begin
      let it_op = operand_of env it_v in
      let slot = emit_slot env it_op info.depth in
      ignore (emit env (Isa.Mbar_arrive { Isa.base = info.empty_base; index = slot }))
    end
  | _ -> err "codegen: malformed aref_consumed"

(* Is this load's result used only by aref puts (i.e., deferred)? *)
let load_is_deferred env (op : Op.op) =
  match op.Op.results with
  | [ r ] -> (
    match Graph.users env.graph r with
    | [] -> false
    | users -> List.for_all (fun (u : Op.op) -> u.Op.opcode = Op.Aref_put) users)
  | _ -> false

let lower_tma_load env (op : Op.op) =
  let desc = operand_of env (List.hd op.Op.operands) in
  let offs = List.map (operand_of env) (List.tl op.Op.operands) in
  let r = List.hd op.Op.results in
  let rows, cols =
    match shape_of_val r with
    | [ rows; cols ] -> (rows, cols)
    | [ n ] -> (1, n)
    | s -> err "codegen: tma_load of rank-%d tile" (List.length s)
  in
  let dtype = dtype_of_val r in
  if env.ldg then begin
    (* Pre-TMA path: synchronous global->register load (ablation
       baseline). *)
    let dst = def_reg env r in
    ignore (emit env (Isa.Ldg { dst; desc; offs; rows; cols; dtype }))
  end
  else if load_is_deferred env op then
    Value.Tbl.replace env.pend r
      { p_desc = desc; p_offs = offs; p_rows = rows; p_cols = cols; p_dtype = dtype }
  else begin
    (* Scratch path: a dedicated single-slot buffer and barrier, with a
       monotonic wait counter (registers start at 0). *)
    let bytes = rows * cols * Dtype.size_bytes dtype in
    let alloc = new_alloc env.g ~slots:1 ~bytes ~label:("scratch:" ^ Value.hint r) in
    let bar =
      new_mbars env.g ~count:1 ~arrive:1 ~resettable:false
        ~label:(fun _ -> "scratch:" ^ Value.hint r)
    in
    let cnt = fresh_reg env in
    ignore (emit env (Isa.Alu { op = Op.Add; dst = cnt; a = Isa.Reg cnt; b = Isa.Imm 1 }));
    ignore
      (emit env
         (Isa.Tma_load
            {
              desc;
              offs;
              dst = { Isa.alloc; slot = Isa.Imm 0 };
              rows;
              cols;
              dtype;
              full = { Isa.base = bar; index = Isa.Imm 0 };
            }));
    ignore
      (emit env
         (Isa.Mbar_wait
            { bar = { Isa.base = bar; index = Isa.Imm 0 }; target = Isa.Reg cnt }));
    bind env r (Bsmem (Isa.view_of_slot { Isa.alloc; slot = Isa.Imm 0 }, Value.ty r))
  end

let dot_dims (op : Op.op) =
  let a = List.nth op.Op.operands 0 in
  let acc = List.nth op.Op.operands 2 in
  match (Types.shape_of (Value.ty a), Types.shape_of (Value.ty acc)) with
  | Some [ _; kdim ], Some [ m; n ] -> (m, n, kdim)
  | _ -> err "codegen: bad dot shapes"

let lower_dot env (op : Op.op) ~async =
  let m, n, kdim = dot_dims op in
  let a = wgmma_src env (List.nth op.Op.operands 0) in
  let b = wgmma_src env (List.nth op.Op.operands 1) in
  let acc_v = List.nth op.Op.operands 2 in
  let acc_reg =
    match lookup env acc_v with
    | Btile (r, _) -> r
    | Bop _ | Bsmem _ | Baref _ -> err "codegen: dot accumulator must be a register tile"
  in
  let dtype = dtype_of_val (List.nth op.Op.operands 0) in
  ignore (emit env (Isa.Wgmma { a; b; acc = acc_reg; m; n; k = kdim; dtype }));
  ignore (emit env Isa.Wgmma_commit);
  if not async then ignore (emit env (Isa.Wgmma_wait 0));
  (* WGMMA accumulates in place: the SSA result aliases the acc register. *)
  bind env (List.hd op.Op.results) (Btile (acc_reg, Value.ty (List.hd op.Op.results)))

(* ------------------------------------------------------------------ *)
(* Structured control flow                                              *)
(* ------------------------------------------------------------------ *)

(* Attribute everything emitted by [f] to [op]: instructions carry its
   id in the stream srcmap, and its (name, front-end source) pair is
   recorded once in the program's opmeta. Saving/restoring [cur_oid]
   keeps a structured op's own scaffolding (loop latches, branch
   patches) charged to the structured op, not to its last child. *)
let with_op env (op : Op.op) f =
  if not (Hashtbl.mem env.g.opmeta op.Op.oid) then
    Hashtbl.replace env.g.opmeta op.Op.oid
      ( Op.opcode_name op.Op.opcode,
        Option.value (Op.attr_int op "tawa.src") ~default:(-1) );
  let saved = env.cur_oid in
  env.cur_oid <- op.Op.oid;
  Fun.protect ~finally:(fun () -> env.cur_oid <- saved) f

let rec gen_ops env (ops : Op.op list) =
  List.iter (gen_op env) ops

and gen_op env (op : Op.op) = with_op env op (fun () -> gen_op_body env op)

and gen_op_body env (op : Op.op) =
  match op.Op.opcode with
  | Op.Const_int i ->
    let v = List.hd op.Op.results in
    (match Value.ty v with
    | Types.TScalar d when Dtype.is_float d -> bind env v (Bop (Isa.Fimm (Float.of_int i), Value.ty v))
    | _ -> bind env v (Bop (Isa.Imm i, Value.ty v)))
  | Op.Const_float f -> bind env (List.hd op.Op.results) (Bop (Isa.Fimm f, Value.ty (List.hd op.Op.results)))
  | Op.Binop o ->
    let r = List.hd op.Op.results in
    if Types.is_tensor (Value.ty r) then begin
      let a = tile_operand env (List.nth op.Op.operands 0) in
      let b = tile_operand env (List.nth op.Op.operands 1) in
      let dst = def_reg env r in
      ignore (emit env (Isa.Tile_binop { op = o; dst; a; b; elems = elems_of_val r }))
    end
    else begin
      let a = operand_of env (List.nth op.Op.operands 0) in
      let b = operand_of env (List.nth op.Op.operands 1) in
      let dst = def_reg env r in
      ignore (emit env (Isa.Alu { op = o; dst; a; b }))
    end
  | Op.Unop o ->
    let r = List.hd op.Op.results in
    if Types.is_tensor (Value.ty r) then begin
      let src = tile_operand env (List.hd op.Op.operands) in
      let dst = def_reg env r in
      ignore (emit env (Isa.Tile_unop { op = o; dst; src; elems = elems_of_val r }))
    end
    else begin
      (* The only scalar unop with an instruction is negation, an ALU
         subtract from zero; the math functions exist for tiles only. *)
      if o <> Op.Neg then err "no scalar instruction for %s" (Op.unop_to_string o);
      let src = operand_of env (List.hd op.Op.operands) in
      let dst = def_reg env r in
      ignore (emit env (Isa.Alu { op = Op.Sub; dst; a = Isa.Imm 0; b = src }))
    end
  | Op.Cmp o ->
    let r = List.hd op.Op.results in
    if Types.is_tensor (Value.ty r) then begin
      let a = tile_operand env (List.nth op.Op.operands 0) in
      let b = tile_operand env (List.nth op.Op.operands 1) in
      let dst = def_reg env r in
      ignore (emit env (Isa.Tile_cmp { op = o; dst; a; b; elems = elems_of_val r }))
    end
    else begin
      let a = operand_of env (List.nth op.Op.operands 0) in
      let b = operand_of env (List.nth op.Op.operands 1) in
      let dst = def_reg env r in
      ignore (emit env (Isa.Cmp { op = o; dst; a; b }))
    end
  | Op.Select ->
    let r = List.hd op.Op.results in
    if Types.is_tensor (Value.ty r) then begin
      let cond = tile_operand env (List.nth op.Op.operands 0) in
      let a = tile_operand env (List.nth op.Op.operands 1) in
      let b = tile_operand env (List.nth op.Op.operands 2) in
      let dst = def_reg env r in
      ignore (emit env (Isa.Tile_select { dst; cond; a; b; elems = elems_of_val r }))
    end
    else begin
      let cond = operand_of env (List.nth op.Op.operands 0) in
      let a = operand_of env (List.nth op.Op.operands 1) in
      let b = operand_of env (List.nth op.Op.operands 2) in
      let dst = def_reg env r in
      ignore (emit env (Isa.Sel { dst; cond; a; b }))
    end
  | Op.Cast ->
    let r = List.hd op.Op.results in
    if Types.is_tensor (Value.ty r) then begin
      let src = tile_operand env (List.hd op.Op.operands) in
      let dst = def_reg env r in
      ignore
        (emit env
           (Isa.Tile_cast { dst; src; dtype = dtype_of_val r; elems = elems_of_val r }))
    end
    else begin
      let src = operand_of env (List.hd op.Op.operands) in
      let dst = def_reg env r in
      ignore (emit env (Isa.Mov { dst; src }))
    end
  | Op.Program_id axis ->
    let dst = def_reg env (List.hd op.Op.results) in
    ignore (emit env (Isa.Pid { dst; axis }))
  | Op.Num_programs axis ->
    let dst = def_reg env (List.hd op.Op.results) in
    ignore (emit env (Isa.Npid { dst; axis }))
  | Op.Splat ->
    let r = List.hd op.Op.results in
    let src = operand_of env (List.hd op.Op.operands) in
    let dst = def_reg env r in
    ignore
      (emit env (Isa.Tile_splat { dst; src; shape = shape_of_val r; dtype = dtype_of_val r }))
  | Op.Iota ->
    let r = List.hd op.Op.results in
    let dst = def_reg env r in
    ignore (emit env (Isa.Tile_iota { dst; n = List.hd (shape_of_val r) }))
  | Op.Broadcast ->
    let r = List.hd op.Op.results in
    let src = tile_operand env (List.hd op.Op.operands) in
    let dst = def_reg env r in
    ignore (emit env (Isa.Tile_bcast { dst; src; shape = shape_of_val r }))
  | Op.Expand_dims _ | Op.Reshape ->
    let r = List.hd op.Op.results in
    let src = tile_operand env (List.hd op.Op.operands) in
    let dst = def_reg env r in
    ignore (emit env (Isa.Tile_reshape { dst; src; shape = shape_of_val r }))
  | Op.Trans -> (
    let r = List.hd op.Op.results in
    let src_v = List.hd op.Op.operands in
    match lookup env src_v with
    | Bsmem (view, _) ->
      if view.Isa.rows >= 0 then err "codegen: transpose of a row-sliced view";
      bind env r (Bsmem ({ view with Isa.transposed = not view.Isa.transposed }, Value.ty r))
    | _ ->
      let src = tile_operand env src_v in
      let dst = def_reg env r in
      ignore (emit env (Isa.Tile_trans { dst; src; elems = elems_of_val r })))
  | Op.Reduce (kind, axis) ->
    let r = List.hd op.Op.results in
    let src_v = List.hd op.Op.operands in
    let src = tile_operand env src_v in
    let dst = def_reg env r in
    ignore (emit env (Isa.Tile_reduce { kind; axis; dst; src; elems = elems_of_val src_v }))
  | Op.Make_tensor_desc ->
    let r = List.hd op.Op.results in
    let ptr = operand_of env (List.hd op.Op.operands) in
    let rest = List.map (operand_of env) (List.tl op.Op.operands) in
    let dims = List.length rest / 2 in
    let sizes = List.filteri (fun i _ -> i < dims) rest in
    let strides = List.filteri (fun i _ -> i >= dims) rest in
    let dst = def_reg env r in
    ignore (emit env (Isa.Mkdesc { dst; ptr; sizes; strides; dtype = dtype_of_val r }))
  | Op.Tma_load -> lower_tma_load env op
  | Op.Tma_store ->
    let desc = operand_of env (List.hd op.Op.operands) in
    let n = List.length op.Op.operands in
    let tile_v = List.nth op.Op.operands (n - 1) in
    let offs =
      List.filteri (fun i _ -> i >= 1 && i < n - 1) op.Op.operands
      |> List.map (operand_of env)
    in
    let rows, cols =
      match shape_of_val tile_v with
      | [ rows; cols ] -> (rows, cols)
      | [ c ] -> (1, c)
      | _ -> err "codegen: tma_store rank"
    in
    let src = tile_operand env tile_v in
    ignore (emit env (Isa.Stg { desc; offs; src; rows; cols }))
  | Op.Local_alloc ->
    let r = List.hd op.Op.results in
    let src = tile_operand env (List.hd op.Op.operands) in
    let bytes = Types.size_bytes (Value.ty r) in
    let alloc = new_alloc env.g ~slots:1 ~bytes ~label:"local" in
    ignore
      (emit env
         (Isa.Sts
            { src; dst = { Isa.alloc; slot = Isa.Imm 0 }; elems = Types.numel (Value.ty r);
              dtype = dtype_of_val r }));
    bind env r (Bsmem (Isa.view_of_slot { Isa.alloc; slot = Isa.Imm 0 }, Value.ty r))
  | Op.Local_load -> (
    let r = List.hd op.Op.results in
    let src_v = List.hd op.Op.operands in
    match lookup env src_v with
    | Bsmem (view, _) ->
      let dst = def_reg env r in
      ignore
        (emit env
           (Isa.Lds { dst; src = view; shape = shape_of_val r; dtype = dtype_of_val r }))
    | Btile (reg, _) -> bind env r (Btile (reg, Value.ty r))
    | _ -> err "codegen: local_load operand")
  | Op.Dot -> lower_dot env op ~async:false
  | Op.Wgmma_issue -> lower_dot env op ~async:true
  | Op.Wgmma_wait n -> ignore (emit env (Isa.Wgmma_wait n))
  | Op.Aref_create _ -> () (* pre-lowered to allocations and barriers *)
  | Op.Aref_put -> lower_put env op
  | Op.Aref_get -> lower_get env op
  | Op.Aref_consumed -> lower_consumed env op
  | Op.For ->
    if Op.attr_bool op "coarse_pipeline" = Some true then gen_coarse_loop env op
    else gen_for env op
  | Op.If -> gen_if env op
  | Op.Yield -> err "codegen: stray yield"
  | Op.Warp_group -> err "codegen: nested warp_group"

and gen_for env (op : Op.op) =
  let lb, ub, step, inits =
    match op.Op.operands with
    | lb :: ub :: step :: inits -> (lb, ub, step, inits)
    | _ -> err "codegen: malformed for"
  in
  let blk = Op.entry_block (List.hd op.Op.regions) in
  let iv_p, iter_ps =
    match blk.Op.params with
    | iv :: iters -> (iv, iters)
    | [] -> err "codegen: for without IV"
  in
  let iv = fresh_reg env in
  ignore (emit env (Isa.Mov { dst = iv; src = operand_of env lb }));
  bind env iv_p (Bop (Isa.Reg iv, Types.i32));
  let iter_regs =
    List.map2
      (fun p init ->
        let r = fresh_reg env in
        ignore (emit env (Isa.Mov { dst = r; src = tile_operand env init }));
        (if Types.is_tensor (Value.ty p) then bind env p (Btile (r, Value.ty p))
         else bind env p (Bop (Isa.Reg r, Value.ty p)));
        r)
      iter_ps inits
  in
  let ub_op = operand_of env ub and step_op = operand_of env step in
  let head = here env in
  let cond = fresh_reg env in
  ignore (emit env (Isa.Cmp { op = Op.Lt; dst = cond; a = Isa.Reg iv; b = ub_op }));
  let exit_br = emit env (Isa.Brz { cond = Isa.Reg cond; target = -1 }) in
  (* Body; the trailing yield moves next-iteration values into place. *)
  List.iter
    (fun (o : Op.op) ->
      match o.Op.opcode with
      | Op.Yield ->
        List.iter2
          (fun r y -> ignore (emit env (Isa.Mov { dst = r; src = tile_operand env y })))
          iter_regs o.Op.operands
      | _ -> gen_op env o)
    blk.Op.ops;
  ignore (emit env (Isa.Alu { op = Op.Add; dst = iv; a = Isa.Reg iv; b = step_op }));
  ignore (emit env (Isa.Bra { target = head }));
  patch env exit_br (Isa.Brz { cond = Isa.Reg cond; target = here env });
  List.iter2
    (fun res r ->
      if Types.is_tensor (Value.ty res) then bind env res (Btile (r, Value.ty res))
      else bind env res (Bop (Isa.Reg r, Value.ty res)))
    op.Op.results iter_regs

and gen_if env (op : Op.op) =
  let cond = operand_of env (List.hd op.Op.operands) in
  let result_regs = List.map (fun r -> (r, fresh_reg env)) op.Op.results in
  let gen_branch (r : Op.region) =
    List.iter
      (fun (o : Op.op) ->
        match o.Op.opcode with
        | Op.Yield ->
          List.iter2
            (fun (_, dst) y ->
              ignore (emit env (Isa.Mov { dst; src = tile_operand env y })))
            result_regs o.Op.operands
        | _ -> gen_op env o)
      (Op.entry_block r).Op.ops
  in
  let else_br = emit env (Isa.Brz { cond; target = -1 }) in
  gen_branch (List.nth op.Op.regions 0);
  let end_br = emit env (Isa.Bra { target = -1 }) in
  patch env else_br (Isa.Brz { cond; target = here env });
  gen_branch (List.nth op.Op.regions 1);
  patch env end_br (Isa.Bra { target = here env });
  List.iter
    (fun (res, r) ->
      if Types.is_tensor (Value.ty res) then bind env res (Btile (r, Value.ty res))
      else bind env res (Bop (Isa.Reg r, Value.ty res)))
    result_regs

(* ------------------------------------------------------------------ *)
(* Coarse-pipelined loop emission (Algorithm 1)                         *)
(* ------------------------------------------------------------------ *)

and gen_coarse_loop env (op : Op.op) =
  let lb, ub, step, inits =
    match op.Op.operands with
    | lb :: ub :: step :: inits -> (lb, ub, step, inits)
    | _ -> err "codegen: malformed coarse loop"
  in
  let blk = Op.entry_block (List.hd op.Op.regions) in
  let iv_p, iter_ps =
    match blk.Op.params with
    | iv :: iters -> (iv, iters)
    | [] -> err "codegen: coarse loop without IV"
  in
  let ops = blk.Op.ops in
  (* The coarse pass stamped the split: T is the first dot, the slice of
     its operands and the K get; U the second dot and the V get; the
     rest is C. *)
  let staged s (o : Op.op) = Op.attr_string o "stage" = Some s in
  let stamped s opcode =
    match List.find_opt (fun (o : Op.op) -> staged s o && o.Op.opcode = opcode) ops with
    | Some o -> o
    | None -> err "codegen: coarse loop has no %s-stage %s" s (Op.opcode_name opcode)
  in
  let t_op = stamped "T" Op.Dot and u_op = stamped "U" Op.Dot in
  let k_get = stamped "T" Op.Aref_get and v_get = stamped "U" Op.Aref_get in
  let k_info = aref_of_value env (List.hd k_get.Op.operands) in
  let v_info = aref_of_value env (List.hd v_get.Op.operands) in

  (* --- loop scaffolding --- *)
  let iv = fresh_reg env in
  ignore (emit env (Isa.Mov { dst = iv; src = operand_of env lb }));
  bind env iv_p (Bop (Isa.Reg iv, Types.i32));
  let iter_regs =
    List.map2
      (fun p init ->
        let r = fresh_reg env in
        ignore (emit env (Isa.Mov { dst = r; src = tile_operand env init }));
        (if Types.is_tensor (Value.ty p) then bind env p (Btile (r, Value.ty p))
         else bind env p (Bop (Isa.Reg r, Value.ty p)));
        r)
      iter_ps inits
  in
  let ub_op = operand_of env ub and step_op = operand_of env step in
  let lb_op = operand_of env lb in
  (* iteration index of a given iv operand *)
  let emit_it iv_op =
    let d = fresh_reg env in
    ignore (emit env (Isa.Alu { op = Op.Sub; dst = d; a = iv_op; b = lb_op }));
    let it = fresh_reg env in
    ignore (emit env (Isa.Alu { op = Op.Div; dst = it; a = Isa.Reg d; b = step_op }));
    Isa.Reg it
  in
  (* Wait on a channel's full barrier for iteration [it_op] and return
     per-payload views. *)
  let emit_channel_get info it_op =
    let slot = emit_slot env it_op info.depth in
    let cycle = emit_cycle env it_op info.depth in
    let tgt = fresh_reg env in
    ignore (emit env (Isa.Alu { op = Op.Add; dst = tgt; a = cycle; b = Isa.Imm 1 }));
    ignore
      (emit env
         (Isa.Mbar_wait
            { bar = { Isa.base = info.full_base; index = slot }; target = Isa.Reg tgt }));
    List.map
      (fun alloc -> Isa.view_of_slot { Isa.alloc; slot })
      info.payload_allocs
  in
  let emit_channel_release info it_op =
    let slot = emit_slot env it_op info.depth in
    ignore (emit env (Isa.Mbar_arrive { Isa.base = info.empty_base; index = slot }))
  in
  (* Emit the T stage (QK^T) for the iteration whose IV is [iv_op],
     leaving the score tile in a fresh register which is returned. The
     K channel is acquired inside. *)
  let emit_t_stage iv_op =
    let it_op = emit_it iv_op in
    let views = emit_channel_get k_info it_op in
    (* Clone the T-slice ops with a local substitution: iv -> iv_op,
       K-get results -> views. *)
    let saved = Value.Tbl.create 16 in
    let save v = if not (Value.Tbl.mem saved v) then Value.Tbl.replace saved v (Value.Tbl.find_opt env.bind v) in
    save iv_p;
    bind env iv_p (Bop (iv_op, Types.i32));
    List.iteri
      (fun i r ->
        save r;
        bind env r (Bsmem (List.nth views i, Value.ty r)))
      k_get.Op.results;
    let s_reg = ref (-1) in
    List.iter
      (fun (o : Op.op) ->
        if staged "T" o && o.Op.opcode <> Op.Aref_get then begin
          List.iter save o.Op.results;
          (match o.Op.opcode with
          | Op.Dot -> with_op env o (fun () -> lower_dot env o ~async:true)
          | _ -> gen_op env o);
          if o.Op.oid = t_op.Op.oid then
            s_reg :=
              (match lookup env (List.hd o.Op.results) with
              | Btile (r, _) -> r
              | _ -> err "codegen: T result not in a register")
        end)
      ops;
    (* Restore the outer bindings (the T result binding for the steady
       state is established by the caller via s_cur). *)
    Value.Tbl.iter
      (fun v old ->
        match old with
        | Some b -> Value.Tbl.replace env.bind v b
        | None -> Value.Tbl.remove env.bind v)
      saved;
    !s_reg
  in

  (* s_cur / s_next rotation registers. *)
  let s_ty = Value.ty (List.hd t_op.Op.results) in
  let s_cur = fresh_reg env and s_next = fresh_reg env in

  (* Prologue: if lb < ub, issue T for iteration 0. *)
  let pcond = fresh_reg env in
  ignore (emit env (Isa.Cmp { op = Op.Lt; dst = pcond; a = lb_op; b = ub_op }));
  let skip_pro = emit env (Isa.Brz { cond = Isa.Reg pcond; target = -1 }) in
  let s0 = emit_t_stage lb_op in
  ignore (emit env (Isa.Mov { dst = s_cur; src = Isa.Reg s0 }));
  ignore (emit env (Isa.Mov { dst = s_next; src = Isa.Reg s0 }));
  patch env skip_pro (Isa.Brz { cond = Isa.Reg pcond; target = here env });

  (* Steady state. *)
  let head = here env in
  let cond = fresh_reg env in
  ignore (emit env (Isa.Cmp { op = Op.Lt; dst = cond; a = Isa.Reg iv; b = ub_op }));
  let exit_br = emit env (Isa.Brz { cond = Isa.Reg cond; target = -1 }) in
  (* 1. Drain the tensor core: completes T_j (and U_{j-1}, which the
     in-order pipe finished first). *)
  ignore (emit env (Isa.Wgmma_wait 0));
  (* 2. Release K_j and, for j >= 1, V_{j-1}. *)
  let it_cur = emit_it (Isa.Reg iv) in
  emit_channel_release k_info it_cur;
  let ge1 = fresh_reg env in
  ignore (emit env (Isa.Cmp { op = Op.Ge; dst = ge1; a = it_cur; b = Isa.Imm 1 }));
  let skip_v = emit env (Isa.Brz { cond = Isa.Reg ge1; target = -1 }) in
  let itm1 = fresh_reg env in
  ignore (emit env (Isa.Alu { op = Op.Sub; dst = itm1; a = it_cur; b = Isa.Imm 1 }));
  emit_channel_release v_info (Isa.Reg itm1);
  patch env skip_v (Isa.Brz { cond = Isa.Reg ge1; target = here env });
  (* 3. Issue T_{j+1} if in range (overlaps the CUDA-core stage below). *)
  let iv_next = fresh_reg env in
  ignore (emit env (Isa.Alu { op = Op.Add; dst = iv_next; a = Isa.Reg iv; b = step_op }));
  let inr = fresh_reg env in
  ignore (emit env (Isa.Cmp { op = Op.Lt; dst = inr; a = Isa.Reg iv_next; b = ub_op }));
  let skip_t = emit env (Isa.Brz { cond = Isa.Reg inr; target = -1 }) in
  let s1 = emit_t_stage (Isa.Reg iv_next) in
  ignore (emit env (Isa.Mov { dst = s_next; src = Isa.Reg s1 }));
  patch env skip_t (Isa.Brz { cond = Isa.Reg inr; target = here env });
  (* 4. CUDA-core stage C_j, reading the current scores. *)
  bind env (List.hd t_op.Op.results) (Btile (s_cur, s_ty));
  let yielded = ref [] in
  List.iter
    (fun (o : Op.op) ->
      let skip = staged "T" o || staged "U" o || o.Op.opcode = Op.Aref_consumed in
      match o.Op.opcode with
      | Op.Yield -> yielded := o.Op.operands
      | _ when skip -> ()
      | _ -> gen_op env o)
    ops;
  (* 5. Acquire V_j and issue U_j asynchronously (left in flight). *)
  let v_views = emit_channel_get v_info it_cur in
  List.iteri
    (fun i r -> bind env r (Bsmem (List.nth v_views i, Value.ty r)))
    v_get.Op.results;
  with_op env u_op (fun () -> lower_dot env u_op ~async:true);
  (* 6. Rotate scores and loop-carried values. *)
  ignore (emit env (Isa.Mov { dst = s_cur; src = Isa.Reg s_next }));
  List.iter2
    (fun r y -> ignore (emit env (Isa.Mov { dst = r; src = tile_operand env y })))
    iter_regs !yielded;
  ignore (emit env (Isa.Alu { op = Op.Add; dst = iv; a = Isa.Reg iv; b = step_op }));
  ignore (emit env (Isa.Bra { target = head }));
  patch env exit_br (Isa.Brz { cond = Isa.Reg cond; target = here env });
  (* Epilogue: drain U_{N-1} and release V_{N-1}. *)
  ignore (emit env (Isa.Wgmma_wait 0));
  let fcond = fresh_reg env in
  ignore (emit env (Isa.Cmp { op = Op.Lt; dst = fcond; a = lb_op; b = ub_op }));
  let skip_fin = emit env (Isa.Brz { cond = Isa.Reg fcond; target = -1 }) in
  let last_iv = fresh_reg env in
  ignore (emit env (Isa.Alu { op = Op.Sub; dst = last_iv; a = Isa.Reg iv; b = step_op }));
  let last_it = emit_it (Isa.Reg last_iv) in
  emit_channel_release v_info last_it;
  patch env skip_fin (Isa.Brz { cond = Isa.Reg fcond; target = here env });
  List.iter2
    (fun res r ->
      if Types.is_tensor (Value.ty res) then bind env res (Btile (r, Value.ty res))
      else bind env res (Bop (Isa.Reg r, Value.ty res)))
    op.Op.results iter_regs

(* ------------------------------------------------------------------ *)
(* Whole-kernel code generation                                         *)
(* ------------------------------------------------------------------ *)

let memdesc_bytes ty = Types.size_bytes ty

(** Lower a kernel — at any stage of the Tawa pipeline — to a machine
    program. Every lowering decision is read off the kernel: persistence
    and the cooperative consumer count from the attributes [persistent]
    and [num_consumer_wgs] the pass manager stamps, the naive build's
    register loads from [load_style = "ldg"], the software pipeline from
    [sw_stages], and the coarse schedule from the [stage] stamps of the
    coarse pipeline pass. *)
let lower (k : Kernel.t) : Isa.program =
  let graph = Graph.build k.Kernel.body in
  let cp_style = Kernel.attr_int k "sw_stages" <> None in
  let ldg = List.assoc_opt "load_style" k.Kernel.attrs = Some (Op.Attr_string "ldg") in
  let persistent =
    match List.assoc_opt "persistent" k.Kernel.attrs with
    | Some (Op.Attr_bool b) -> b
    | _ -> false
  in
  let coop =
    match Kernel.attr_int k "num_consumer_wgs" with
    | Some c when c > 1 -> c
    | _ -> 1
  in
  let g =
    { allocs = []; next_alloc = 0; arrive_counts = []; resettable = []; mbar_labels = [];
      next_mbar = 0; ring_labels = []; next_ring = 0; opmeta = Hashtbl.create 64 }
  in
  (* Pre-lower aref creates to allocations + barriers. *)
  let aref_bindings = ref [] in
  Op.iter_region
    (fun op ->
      match op.Op.opcode with
      | Op.Aref_create depth ->
        let v = List.hd op.Op.results in
        let payload =
          match Value.ty v with
          | Types.TAref { payload; _ } -> payload
          | _ -> err "codegen: aref_create with non-aref result"
        in
        let payload_allocs =
          List.mapi
            (fun i ty ->
              new_alloc g ~slots:depth ~bytes:(memdesc_bytes ty)
                ~label:(Printf.sprintf "%s.%d" (Value.hint v) i))
            payload
        in
        let payload_tiles =
          List.map
            (fun ty ->
              ( Option.value (Types.shape_of ty) ~default:[],
                Option.get (Types.dtype_of ty) ))
            payload
        in
        let info =
          if cp_style then begin
            let ring = g.next_ring in
            g.next_ring <- ring + 1;
            g.ring_labels <- Value.hint v :: g.ring_labels;
            { depth; payload_allocs; payload_tiles; empty_base = -1; full_base = ring;
              cp_style = true }
          end
          else begin
            (* Consumed arrivals: cooperating consumer WGs are modelled
               as one merged stream (cost-split in the simulator), so
               the empty barrier sees one arrival per release. Full
               completions: one arrival per payload TMA (the
               transaction-count aggregation of §III-E). *)
            let hint = Value.hint v in
            let empty_base =
              new_mbars g ~count:depth ~arrive:1 ~resettable:true
                ~label:(fun i -> Printf.sprintf "%s.empty[%d]" hint i)
            in
            let full_base =
              new_mbars g ~count:depth ~arrive:(List.length payload) ~resettable:true
                ~label:(fun i -> Printf.sprintf "%s.full[%d]" hint i)
            in
            { depth; payload_allocs; payload_tiles; empty_base; full_base;
              cp_style = false }
          end
        in
        aref_bindings := (v, info) :: !aref_bindings
      | _ -> ())
    k.Kernel.body;

  let entry = Kernel.entry k in
  let top_ops =
    List.filter
      (fun (o : Op.op) ->
        match o.Op.opcode with Op.Aref_create _ | Op.Warp_group -> false | _ -> true)
      entry.Op.ops
  in
  let wg = Kernel.find_warp_group k in
  let region_specs =
    match wg with
    | None -> [ (Op.Consumer, None) ]
    | Some wgop ->
      let roles =
        match Op.attr_string wgop "roles" with
        | Some s -> String.split_on_char ',' s |> List.filter_map Op.role_of_string
        | None -> List.map (fun _ -> Op.Consumer) wgop.Op.regions
      in
      List.mapi
        (fun i r ->
          let role = try List.nth roles i with _ -> Op.Consumer in
          (role, Some r))
        wgop.Op.regions
  in
  let streams =
    List.map
      (fun (role, region) ->
        let env = create_genv g graph ~coop:(if role = Op.Consumer then coop else 1) ~ldg in
        (* Kernel params live in registers 0..n-1, preloaded by the
           launcher. *)
        List.iter
          (fun p ->
            let r = fresh_reg env in
            if Types.is_tensor (Value.ty p) then bind env p (Btile (r, Value.ty p))
            else bind env p (Bop (Isa.Reg r, Value.ty p)))
          k.Kernel.params;
        List.iter (fun (v, info) -> bind env v (Baref info)) !aref_bindings;
        let body () =
          gen_ops env top_ops;
          match region with
          | None -> ()
          | Some r -> gen_ops env (Op.entry_block r).Op.ops
        in
        if persistent then begin
          let head = here env in
          let r = fresh_reg env in
          ignore (emit env (Isa.Workq_pop { dst = r }));
          let neg = fresh_reg env in
          ignore (emit env (Isa.Cmp { op = Op.Lt; dst = neg; a = Isa.Reg r; b = Isa.Imm 0 }));
          let exit_br = emit env (Isa.Brnz { cond = Isa.Reg neg; target = -1 }) in
          (* Phase bookkeeping between tiles: fence, reset, fence. *)
          ignore (emit env Isa.Fence);
          if role = Op.Producer || wg = None then ignore (emit env Isa.Sync_reset);
          ignore (emit env Isa.Fence);
          body ();
          ignore (emit env (Isa.Bra { target = head }));
          patch env exit_br (Isa.Brnz { cond = Isa.Reg neg; target = here env });
          ignore (emit env Isa.Exit)
        end
        else begin
          body ();
          ignore (emit env Isa.Exit)
        end;
        ( {
            Isa.role;
            instrs = Array.sub env.code 0 env.len;
            coop = (if role = Op.Consumer then coop else 1);
          },
          Array.sub env.src 0 env.len ))
      region_specs
  in
  let opmeta =
    Hashtbl.fold (fun oid (name, src) acc -> (oid, name, src) :: acc) g.opmeta []
    |> List.sort (fun (a, _, _) (b, _, _) -> compare a b)
    |> Array.of_list
  in
  {
    Isa.name = k.Kernel.name;
    param_tys = List.map Value.ty k.Kernel.params;
    streams = List.map fst streams;
    allocs = List.rev g.allocs;
    num_mbarriers = g.next_mbar;
    mbar_arrive_counts = Array.of_list (List.rev g.arrive_counts);
    mbar_resettable = Array.of_list (List.rev g.resettable);
    num_rings = g.next_ring;
    persistent;
    grid_axes = 3;
    prov =
      {
        Isa.srcmaps = Array.of_list (List.map snd streams);
        opmeta;
        mbar_labels = Array.of_list (List.rev g.mbar_labels);
        ring_labels = Array.of_list (List.rev g.ring_labels);
      };
  }
