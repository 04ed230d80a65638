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
  let top = Builder.block_builder () in
  let arefs = create_arefs top ml ~hint:"ring" ~depth:stages in
  let produce b iv = emit_produce b ml arefs ~iv in
  (* [iv + (S-1) * step]: the induction value S-1 iterations ahead. *)
  let ahead b iv = Builder.add b iv (Builder.mul b (Builder.const_i b (stages - 1)) ml.step) in
  (* Prologue loop: first min(S-1, niters) iterations prefetched. *)
  let pre_ub = Builder.min_ top (ahead top ml.lb) ml.ub in
  ignore
    (Builder.for_ top ~hint:"s" ~lb:ml.lb ~ub:pre_ub ~step:ml.step ~inits:[] (fun iv _ ->
         produce top iv;
         []));
  (* Main loop: before the gets, prefetch iteration it + S - 1 if it is
     in range. *)
  let prefetch b iv =
    let kpre = ahead b iv in
    let cond = Builder.cmp b Op.Lt kpre ml.ub in
    Value.set_hint cond "inrange";
    ignore
      (Builder.if_ b cond ~result_tys:[] (fun () -> produce b kpre; []) (fun () -> []))
  in
  (* Triton also pipelines WGMMA on Hopper: in single-dot (GEMM-like)
     loops the dot is issued asynchronously with one MMA left in
     flight (none when the body reads the product,
     {!Partition.emit_async_dot}), drained after the loop. Multi-dot
     bodies (attention) keep synchronous dots: the softmax reads the
     scores immediately. *)
  let dot =
    match
      List.filter (fun (o : Op.op) -> o.Op.opcode = Op.Dot && not (is_iteration ml o)) (body_ops ml)
    with
    | [ dot ] -> Some dot
    | _ -> None
  in
  let emit_tile b (op : Op.op) =
    match dot with
    | Some dot when op.Op.opcode = Op.Dot -> emit_async_dot b ml.loop dot ~in_flight:1 op
    | _ -> Builder.append b op
  in
  let main, results = consumer_loop ml arefs ~before_gets:prefetch ~emit_tile in
  let prologue, epilogue = split_entry k ml results in
  Builder.append top main;
  if Option.is_some dot then Builder.append top (Op.mk (Op.Wgmma_wait 0));
  (Kernel.entry k).Op.ops <- prologue @ Builder.finish top @ epilogue;
  Kernel.set_attr k "sw_stages" (Op.Attr_int stages);
  k
