(** Partition annotation (§III-C.1).

    Walking backward along use-def chains from the kernel's
    side-effecting sinks, every op in a pipelined loop body is tagged:

    - {e iteration statements}: pointer/address arithmetic feeding the
      TMA transfers, together with the TMA loads they dominate — these
      belong to the producer warp group;
    - {e tile statements}: ops that transform or consume a tile (dot,
      softmax arithmetic, reductions, stores) — these belong to the
      consumer warp group(s).

    The coarse-grained pipeline's split of a consumer iteration into
    stages T, C and U (§III-D.2) is {!Pipeline_coarse}'s. *)

open Tawa_ir

type stmt_class = Iteration | Tile

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
