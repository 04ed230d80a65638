(** Coarse-grained CUDA/Tensor-core pipelining (§III-D.2, Algorithm 1).

    The pass decides how each iteration of the consumer loop splits into
    a first tensor-core stage [T] (e.g. QK^T), a CUDA-core stage [C]
    (e.g. the online-softmax update) and a second tensor-core stage [U]
    (e.g. PV), and stamps that split on the ops:

    - [stage = "T"]: the first dot and the body-local slice of its
      operands, the K channel's [aref_get] and its slot arithmetic
      included;
    - [stage = "U"]: the second dot and the get of the V channel, whose
      tile only U reads, as its B operand;
    - every other op is C and carries no stamp.

    Code generation reads the stamps and emits the three-stage assembly
    line of Algorithm 1: in steady state [T_{j+1}] and [U_j] are issued
    asynchronously around the CUDA-core stage [C_j], with [DOTWAIT]s at
    the tensor-core boundaries. The pass raises {!Pass.Not_applicable}
    for any loop that schedule cannot lower. *)

open Tawa_ir

let na = Pass.na

let stamp (op : Op.op) s = Op.set_attr op "stage" (Op.Attr_string s)

(** [apply k] stamps the stages on the consumer loop of [k] (a clone)
    and marks the loop [coarse_pipeline]. *)
let apply (kernel : Kernel.t) : Kernel.t =
  let k = Kernel.clone kernel in
  let loop =
    match Pipeline_fine.find_main_loop (Pipeline_fine.consumer_block k) with
    | Some l -> l
    | None -> na "no consumer loop"
  in
  let body = Op.entry_block (List.hd loop.Op.regions) in
  let ops = body.Op.ops in
  (* Use-def chains of the body alone: slices stop at the loop's edge. *)
  let g = Graph.build (List.hd loop.Op.regions) in
  let t_op, u_op =
    match List.filter (fun (op : Op.op) -> op.Op.opcode = Op.Dot) ops with
    | [ t; u ] when List.memq t (Graph.slice g u.Op.operands) -> (t, u)
    | _ -> na "consumer loop does not have the T/C/U stage shape"
  in
  (* Stage T: the first dot and the slice of its operands. *)
  let t_slice = Graph.slice g t_op.Op.results in
  let in_t op = List.memq op t_slice in
  let reads (op : Op.op) (d : Op.op) =
    List.exists (fun v -> List.exists (Value.equal v) d.Op.results) op.Op.operands
  in
  let k_get, v_get =
    match
      List.partition in_t
        (List.filter (fun (op : Op.op) -> op.Op.opcode = Op.Aref_get) ops)
    with
    | [ kg ], [ vg ]
      when List.exists (Value.equal (List.nth u_op.Op.operands 1)) vg.Op.results
           && List.for_all (fun (op : Op.op) -> op == u_op || not (reads op vg)) ops ->
      (kg, vg)
    | _ -> na "consumer loop needs distinct K and V channels"
  in
  (* T_{j+1} is issued before C_j: T may not read a loop-carried value,
     and everything after T sees the group only through its result
     (gets and releases re-derive their slots). *)
  let carried = List.tl body.Op.params in
  if
    List.exists
      (fun (op : Op.op) -> List.exists (fun v -> List.exists (Value.equal v) carried) op.Op.operands)
      t_slice
  then na "stage T reads a loop-carried value";
  List.iter
    (fun (op : Op.op) ->
      match op.Op.opcode with
      | Op.Aref_get | Op.Aref_consumed -> ()
      | _ when in_t op -> ()
      | _ ->
        List.iter
          (fun v ->
            match Graph.def g v with
            | Some d when d != t_op && in_t d ->
              na "a value of stage T other than its result is read after T"
            | _ -> ())
          op.Op.operands)
    ops;
  let released (get : Op.op) =
    List.exists
      (fun (c : Op.op) ->
        c.Op.opcode = Op.Aref_consumed
        && Value.equal (List.hd c.Op.operands) (List.hd get.Op.operands))
      ops
  in
  if not (released k_get && released v_get) then
    na "consumer loop never releases its K or V channel";
  List.iter (fun op -> stamp op "T") t_slice;
  stamp u_op "U";
  stamp v_get "U";
  Op.set_attr loop "coarse_pipeline" (Op.Attr_bool true);
  k
