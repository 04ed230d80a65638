(** Partition annotation (§III-C.1) and pipeline stage identification
    (§III-D.2).

    Walking backward along use-def chains from the kernel's
    side-effecting sinks, every op in a pipelined loop body is tagged:

    - {e iteration statements}: pointer/address arithmetic feeding the
      TMA transfers, together with the TMA loads they dominate — these
      belong to the producer warp group;
    - {e tile statements}: ops that transform or consume a tile (dot,
      softmax arithmetic, reductions, stores) — these belong to the
      consumer warp group(s).

    For the coarse-grained pipeline, the per-iteration subgraph is
    further partitioned into stages [T] (first tensor-core phase),
    [C] (CUDA-core transform reading T's output), and optionally [U]
    (second tensor-core phase consuming C's output), using dialect- and
    type-level cues exactly as described in the paper. *)

open Tawa_ir

type stmt_class = Iteration | Tile

type stage = Stage_t | Stage_c | Stage_u

(** Classification of one pipelined loop body. Keys are op ids. *)
type classification = {
  classes : (int, stmt_class) Hashtbl.t;
  loads : Op.op list;            (* TMA loads, in program order *)
  body_def : Op.op Value.Tbl.t;  (* defs local to the loop body *)
}

let body_ops (loop : Op.op) = (Op.entry_block (List.hd loop.Op.regions)).Op.ops

(** [classify loop] tags every op of [loop]'s body. The iteration set is
    the TMA loads plus the body-local backward slice of their address
    operands; every other op is a tile statement. *)
let classify (loop : Op.op) : classification =
  let ops = body_ops loop in
  let body_def = Value.Tbl.create 64 in
  List.iter
    (fun (op : Op.op) -> List.iter (fun r -> Value.Tbl.replace body_def r op) op.Op.results)
    ops;
  let classes = Hashtbl.create 64 in
  List.iter (fun (op : Op.op) -> Hashtbl.replace classes op.Op.oid Tile) ops;
  let loads =
    List.filter (fun (op : Op.op) -> op.Op.opcode = Op.Tma_load) ops
  in
  (* Backward walk from the loads' operands, staying inside the body. *)
  let rec mark_iteration v =
    match Value.Tbl.find_opt body_def v with
    | None -> () (* defined outside the loop: shared scalar *)
    | Some op ->
      if Hashtbl.find classes op.Op.oid <> Iteration then begin
        Hashtbl.replace classes op.Op.oid Iteration;
        List.iter mark_iteration op.Op.operands
      end
  in
  List.iter
    (fun (load : Op.op) ->
      Hashtbl.replace classes load.Op.oid Iteration;
      List.iter mark_iteration load.Op.operands)
    loads;
  { classes; loads; body_def }

let class_of cls (op : Op.op) =
  Option.value (Hashtbl.find_opt cls.classes op.Op.oid) ~default:Tile

(** Tile statements (consumer side) of the classified body, in order. *)
let tile_ops cls (loop : Op.op) =
  List.filter (fun op -> class_of cls op = Tile) (body_ops loop)

(** Iteration statements (producer side), in order. *)
let iteration_ops cls (loop : Op.op) =
  List.filter (fun op -> class_of cls op = Iteration) (body_ops loop)

(* ------------------------------------------------------------------ *)
(* Stage identification for the coarse-grained pipeline                *)
(* ------------------------------------------------------------------ *)

type stages = {
  t_op : Op.op;                  (* first tensor-core phase *)
  u_op : Op.op option;           (* optional downstream tensor-core phase *)
  stage_of : (int, stage) Hashtbl.t;
}

(** [identify_stages loop] splits the per-iteration subgraph into
    [T_j -> C_j -> U_j]. Returns [None] when the body has no dot or a
    shape that does not fit the producer-transform-consumer template
    (e.g. plain GEMM with a single dot and no interleaved CUDA-core
    work). *)
let identify_stages (cls : classification) (loop : Op.op) : stages option =
  let ops = body_ops loop in
  let dots =
    List.filter
      (fun (op : Op.op) ->
        (match op.Op.opcode with Op.Dot | Op.Wgmma_issue -> true | _ -> false)
        && class_of cls op = Tile)
      ops
  in
  match dots with
  | [ t_op; u_op ] ->
    (* Check U really consumes a value derived from T's output. *)
    let derived = Value.Tbl.create 32 in
    List.iter (fun r -> Value.Tbl.replace derived r ()) t_op.Op.results;
    List.iter
      (fun (op : Op.op) ->
        if op.Op.oid <> t_op.Op.oid
           && List.exists (fun v -> Value.Tbl.mem derived v) op.Op.operands
        then List.iter (fun r -> Value.Tbl.replace derived r ()) op.Op.results)
      ops;
    if not (List.exists (fun v -> Value.Tbl.mem derived v) u_op.Op.operands) then None
    else begin
      let stage_of = Hashtbl.create 64 in
      Hashtbl.replace stage_of t_op.Op.oid Stage_t;
      Hashtbl.replace stage_of u_op.Op.oid Stage_u;
      List.iter
        (fun (op : Op.op) ->
          if class_of cls op = Tile && op.Op.oid <> t_op.Op.oid
             && op.Op.oid <> u_op.Op.oid && op.Op.opcode <> Op.Yield
          then Hashtbl.replace stage_of op.Op.oid Stage_c)
        ops;
      Some { t_op; u_op = Some u_op; stage_of }
    end
  | _ -> None
