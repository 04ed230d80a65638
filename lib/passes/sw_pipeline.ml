(** Ampere-style software pipelining — the Triton baseline (§V-B).

    Instead of splitting the loop across warp groups, the same warp
    group prefetches loads [S-1] iterations ahead through an [S]-slot
    ring, using [cp.async] commit groups rather than TMA + mbarriers:

    {v
    prologue: for s in first S-1 iterations: issue loads(s); put(s)
    loop k:
      if k + (S-1)*step < ub: issue loads(k+S-1); put(it+S-1)
      get(it); compute; consumed(it)
    v}

    This is the partitioner's loop distribution with both ends of every
    aref in one warp group. The [sw_stages] kernel attribute tells code
    generation to lower [put] to [cp.async + commit_group] issued by
    the compute warps (the address generation cost stays on the warp,
    which is precisely the disadvantage versus hardware warp
    specialization that the paper measures). *)

open Tawa_ir
open Partition

(** [apply ~stages kernel] returns a software-pipelined clone of
    [kernel] with an [S]-stage prefetch ring. *)
let apply ~stages (kernel : Kernel.t) : Kernel.t =
  if stages < 1 then invalid_arg "sw_pipeline: stages must be >= 1";
  let k = Kernel.clone kernel in
  let ml = main_loop k in
  let top = mk_emitter () in
  let arefs = create_arefs top ml ~hint:"ring" ~depth:stages in
  let produce e iv = emit_produce e ml arefs ~iv in
  (* [iv + (S-1) * step]: the induction value S-1 iterations ahead. *)
  let ahead e iv =
    emit_binop e Op.Add iv (emit_binop e Op.Mul (emit_const_i e (stages - 1)) ml.step)
  in
  (* Prologue loop: first min(S-1, niters) iterations prefetched. *)
  let pro = mk_emitter () in
  let pre_ub = emit_binop pro Op.Min (ahead pro ml.lb) ml.ub in
  pro.emit (counted_loop ~hint:"s" ~lb:ml.lb ~ub:pre_ub ~step:ml.step produce);
  (* Main loop: before the gets, prefetch iteration it + S - 1 if it is
     in range. *)
  let prefetch e iv =
    let kpre = ahead e iv in
    let cond = Value.fresh ~hint:"inrange" Types.i1 in
    e.emit (Op.mk (Op.Cmp Op.Lt) ~operands:[ kpre; ml.ub ] ~results:[ cond ]);
    emit_if e cond (fun e -> produce e kpre)
  in
  (* Triton also pipelines WGMMA on Hopper: in single-dot (GEMM-like)
     loops the dot is issued asynchronously with one MMA left in
     flight, drained after the loop. Multi-dot bodies (attention) keep
     synchronous dots: the softmax reads the scores immediately. *)
  let async =
    List.length
      (List.filter
         (fun (o : Op.op) -> o.Op.opcode = Op.Dot && Annotate.class_of ml.cls o = Annotate.Tile)
         (Annotate.body_ops ml.loop))
    = 1
  in
  let emit_tile e (op : Op.op) =
    if async && op.Op.opcode = Op.Dot then begin
      e.emit
        (Op.mk Op.Wgmma_issue ~operands:op.Op.operands ~results:op.Op.results
           ~attrs:op.Op.attrs);
      e.emit (Op.mk (Op.Wgmma_wait 1))
    end
    else e.emit op
  in
  let main, results = consumer_loop ml arefs ~before_gets:prefetch ~emit_tile in
  let prologue, epilogue = split_entry k ml results in
  let drain = if async then [ Op.mk (Op.Wgmma_wait 0) ] else [] in
  (Kernel.entry k).Op.ops <-
    prologue @ top.finish () @ pro.finish () @ [ main ] @ drain @ epilogue;
  Kernel.set_attr k "sw_stages" (Op.Attr_int stages);
  k
