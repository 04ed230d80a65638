(** Fine-grained MMA pipelining (§III-D.1).

    On the consumer warp group's main loop, each dot becomes an
    asynchronous issue ([wgmma_issue]) followed by a bounded wait
    ([wgmma_wait {pendings = P}]), so up to [P] MMA operations stay in
    flight while CUDA cores run ahead computing addresses. Because the
    SMEM operands of an in-flight WGMMA must stay live, the slot release
    is re-timed: iteration [k] releases slot [k - P] (guarded for the
    first [P] iterations), and an epilogue after the loop drains the
    pipeline ([wgmma_wait {pendings = 0}]) and releases the last [P]
    slots. *)

open Tawa_ir

let na = Pass.na

(* Find the consumer region of the warp_group op (the last region by the
   roles convention of the partitioner). *)
let consumer_block (k : Kernel.t) =
  match Kernel.find_warp_group k with
  | None -> na "kernel is not warp-specialized"
  | Some wg -> (
    match List.rev wg.Op.regions with
    | consumer :: _ -> Op.entry_block consumer
    | [] -> na "warp_group has no regions")

let find_main_loop (blk : Op.block) =
  List.find_opt
    (fun (op : Op.op) ->
      op.Op.opcode = Op.For
      && List.exists
           (fun (o : Op.op) -> o.Op.opcode = Op.Aref_get)
           (Op.entry_block (List.hd op.Op.regions)).Op.ops)
    blk.Op.ops

(** [apply ~mma_depth k] transforms the consumer loop of a
    warp-specialized kernel in place (on a clone) and returns it.
    [mma_depth] is the paper's [P]. Loops already carrying a coarse
    pipeline annotation are left untouched (the coarse schedule manages
    its own waits). *)
let apply ~mma_depth (kernel : Kernel.t) : Kernel.t =
  if mma_depth < 1 then invalid_arg "pipeline_fine: mma_depth must be >= 1";
  let k = Kernel.clone kernel in
  let blk = consumer_block k in
  let loop = match find_main_loop blk with Some l -> l | None -> na "no consumer loop" in
  if Op.attr_bool loop "coarse_pipeline" = Some true then k
  else begin
    let lb, ub, step =
      match loop.Op.operands with
      | lb :: ub :: step :: _ -> (lb, ub, step)
      | _ -> na "malformed loop"
    in
    let body = Op.entry_block (List.hd loop.Op.regions) in
    let iv = List.hd body.Op.params in
    let dots =
      List.filter (fun (op : Op.op) -> op.Op.opcode = Op.Dot) body.Op.ops
    in
    (match dots with
    | [ _ ] -> ()
    | [] -> na "consumer loop has no dot"
    | _ -> na "fine pipelining expects a single dot (use the coarse pipeline)");
    let dot = List.hd dots in
    (* Collect the arefs whose slots are released in this loop and the
       slot value they use; the consumed ops get re-timed. *)
    let consumed_ops =
      List.filter (fun (op : Op.op) -> op.Op.opcode = Op.Aref_consumed) body.Op.ops
    in
    if consumed_ops = [] then na "consumer loop has no aref_consumed";
    let aref_of (op : Op.op) = List.hd op.Op.operands in
    let depth =
      match Value.ty (aref_of (List.hd consumed_ops)) with
      | Types.TAref { depth; _ } -> depth
      | _ -> na "consumed operand is not an aref"
    in
    if depth < mma_depth then
      na "aref depth %d < MMA pipeline depth %d (infeasible, need D >= P)" depth mma_depth;
    (* Rebuild the body op list. *)
    let e = Partition.mk_emitter () in
    let p_const = ref None in
    let emit_guarded_release () =
      (* if (it >= P) { consumed(aref_g, it - P) } *)
      let it = Partition.emit_iter_index e ~iv ~lb ~step in
      let p =
        match !p_const with
        | Some p -> p
        | None ->
          let p = Partition.emit_const_i e mma_depth in
          p_const := Some p;
          p
      in
      let cond = Value.fresh ~hint:"cond" Types.i1 in
      e.Partition.emit (Op.mk (Op.Cmp Op.Ge) ~operands:[ it; p ] ~results:[ cond ]);
      let then_e = Partition.mk_emitter () in
      let itp = Partition.emit_binop then_e Op.Sub it p in
      List.iter
        (fun (c : Op.op) ->
          then_e.Partition.emit (Op.mk Op.Aref_consumed ~operands:[ aref_of c; itp ]))
        consumed_ops;
      then_e.Partition.emit (Op.mk Op.Yield);
      let else_e = Partition.mk_emitter () in
      else_e.Partition.emit (Op.mk Op.Yield);
      e.Partition.emit
        (Op.mk Op.If ~operands:[ cond ]
           ~regions:
             [ Op.single_block_region (then_e.Partition.finish ());
               Op.single_block_region (else_e.Partition.finish ()) ])
    in
    (* Body schedule (liveness: D >= P suffices, matching Fig. 11):
         release slot (it - P)   [top of iteration, before the get]
         get slot it
         ... tile statements ...
         issue; wait {pendings = P - 1}
       After iteration k's wait, MMAs 0..k-P+1 are complete, so the
       release at the top of iteration k+1 frees a slot whose MMA has
       retired, and the producer's put for iteration k+1+... proceeds. *)
    let released = ref false in
    List.iter
      (fun (op : Op.op) ->
        match op.Op.opcode with
        | Op.Aref_get when not !released ->
          released := true;
          emit_guarded_release ();
          e.Partition.emit op
        | Op.Dot when op.Op.oid = dot.Op.oid ->
          (* dot -> issue-and-commit + bounded wait *)
          e.Partition.emit
            (Op.mk Op.Wgmma_issue ~operands:op.Op.operands ~results:op.Op.results
               ~attrs:op.Op.attrs);
          e.Partition.emit (Op.mk (Op.Wgmma_wait (mma_depth - 1)))
        | Op.Aref_consumed -> () (* dropped; re-timed above *)
        | _ -> e.Partition.emit op)
      body.Op.ops;
    body.Op.ops <- e.Partition.finish ();
    (* Epilogue after the loop: drain the MMA pipeline, then release the
       remaining slots: for j in max(niters - P, 0) .. niters. *)
    let epi = Partition.mk_emitter () in
    epi.Partition.emit (Op.mk (Op.Wgmma_wait 0));
    let one = Partition.emit_const_i epi 1 in
    let p = Partition.emit_const_i epi mma_depth in
    let zero = Partition.emit_const_i epi 0 in
    (* niters = ceil((ub - lb) / step) = (ub - lb + step - 1) / step *)
    let span = Partition.emit_binop epi Op.Sub ub lb in
    let stepm1 = Partition.emit_binop epi Op.Sub step one in
    let num = Partition.emit_binop epi Op.Add span stepm1 in
    let niters = Partition.emit_binop epi Op.Div num step in
    let start0 = Partition.emit_binop epi Op.Sub niters p in
    let start = Partition.emit_binop epi Op.Max start0 zero in
    let drain_e = Partition.mk_emitter () in
    let j = Value.fresh ~hint:"j" Types.i32 in
    List.iter
      (fun (c : Op.op) ->
        drain_e.Partition.emit (Op.mk Op.Aref_consumed ~operands:[ aref_of c; j ]))
      consumed_ops;
    drain_e.Partition.emit (Op.mk Op.Yield);
    epi.Partition.emit
      (Op.mk Op.For ~operands:[ start; niters; one ]
         ~regions:[ Op.single_block_region ~params:[ j ] (drain_e.Partition.finish ()) ]);
    (* Insert the drain right after the loop in the consumer block. *)
    let rec insert = function
      | [] -> na "loop vanished"
      | (op : Op.op) :: rest when op.Op.oid = loop.Op.oid ->
        (op :: epi.Partition.finish ()) @ rest
      | op :: rest -> op :: insert rest
    in
    blk.Op.ops <- insert blk.Op.ops;
    Kernel.set_attr k "mma_depth" (Op.Attr_int mma_depth);
    k
  end
