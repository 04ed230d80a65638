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

    The aref machinery is reused with both ends in one warp group; the
    [sw_stages] kernel attribute tells code generation to lower
    [put] to [cp.async + commit_group] issued by the compute warps (the
    address generation cost stays on the warp, which is precisely the
    disadvantage versus hardware warp specialization that the paper
    measures). *)

open Tawa_ir

let na = Pass.na

(** [apply ~stages kernel] returns a software-pipelined clone of
    [kernel] with an [S]-stage prefetch ring. *)
let apply ~stages (kernel : Kernel.t) : Kernel.t =
  if stages < 1 then invalid_arg "sw_pipeline: stages must be >= 1";
  let k = Kernel.clone kernel in
  let loop =
    match Partition.find_pipeline_loop k with
    | Some l -> l
    | None -> na "no TMA-fed loop found"
  in
  let cls = Annotate.classify loop in
  if cls.Annotate.loads = [] then na "loop has no TMA loads";
  Partition.check_no_cycles cls loop;
  let groups = Partition.group_loads cls loop in
  let lb, ub, step, inits =
    match loop.Op.operands with
    | lb :: ub :: step :: inits -> (lb, ub, step, inits)
    | _ -> na "malformed loop"
  in
  let body_blk = Op.entry_block (List.hd loop.Op.regions) in
  let orig_iv, orig_iters =
    match body_blk.Op.params with
    | iv :: iters -> (iv, iters)
    | [] -> na "loop without IV"
  in
  let memdesc_ty = Partition.memdesc_ty_of_tensor in

  (* aref rings, depth = S. *)
  let top = Partition.mk_emitter () in
  let arefs =
    List.map
      (fun (g : Partition.group) ->
        let payload =
          List.map
            (fun (l : Op.op) -> memdesc_ty (Value.ty (List.hd l.Op.results)))
            g.Partition.group_loads
        in
        let v = Value.fresh ~hint:"ring" (Types.aref payload stages) in
        top.Partition.emit (Op.mk (Op.Aref_create stages) ~results:[ v ]);
        (g, v))
      groups
  in

  (* Emit the iteration statements + puts for the iteration whose IV is
     [iv_val], into [e], with a fresh substitution map. *)
  let emit_prefetch e ~iv_val =
    let map = Value.Tbl.create 32 in
    Value.Tbl.replace map orig_iv iv_val;
    let it = Partition.emit_iter_index e ~iv:iv_val ~lb ~step in
    let loaded = Hashtbl.create 8 in
    List.iter
      (fun (op : Op.op) ->
        if Annotate.class_of cls op = Annotate.Iteration then begin
          let cloned = Partition.clone_with map op in
          e.Partition.emit cloned;
          if op.Op.opcode = Op.Tma_load then
            Hashtbl.replace loaded op.Op.oid (List.hd cloned.Op.results)
        end;
        List.iter
          (fun ((g : Partition.group), aref_v) ->
            let last =
              List.nth g.Partition.group_loads (List.length g.Partition.group_loads - 1)
            in
            if last.Op.oid = op.Op.oid then begin
              let payload =
                List.map
                  (fun (l : Op.op) -> Hashtbl.find loaded l.Op.oid)
                  g.Partition.group_loads
              in
              e.Partition.emit (Op.mk Op.Aref_put ~operands:(aref_v :: it :: payload))
            end)
          arefs)
      body_blk.Op.ops
  in

  (* Prologue loop: first min(S-1, niters) iterations prefetched. *)
  let pro = Partition.mk_emitter () in
  let sm1 = Partition.emit_const_i pro ((stages - 1)) in
  let span = Partition.emit_binop pro Op.Mul sm1 step in
  let pre_ub0 = Partition.emit_binop pro Op.Add lb span in
  let pre_ub = Partition.emit_binop pro Op.Min pre_ub0 ub in
  let pro_body = Partition.mk_emitter () in
  let s_iv = Value.fresh ~hint:"s" Types.i32 in
  emit_prefetch pro_body ~iv_val:s_iv;
  pro_body.Partition.emit (Op.mk Op.Yield);
  pro.Partition.emit
    (Op.mk Op.For ~operands:[ lb; pre_ub; step ]
       ~regions:[ Op.single_block_region ~params:[ s_iv ] (pro_body.Partition.finish ()) ]);

  (* Main loop. *)
  let e = Partition.mk_emitter () in
  let iv = Value.fresh ~hint:"k" Types.i32 in
  let map = Value.Tbl.create 64 in
  Value.Tbl.replace map orig_iv iv;
  let iters =
    List.map
      (fun itv ->
        let itv' = Value.fresh ~hint:(Value.hint itv) (Value.ty itv) in
        Value.Tbl.replace map itv itv';
        itv')
      orig_iters
  in
  let it = Partition.emit_iter_index e ~iv ~lb ~step in
  (* Guarded prefetch of iteration it + S - 1. *)
  let sm1' = Partition.emit_const_i e (stages - 1) in
  let span' = Partition.emit_binop e Op.Mul sm1' step in
  let kpre = Partition.emit_binop e Op.Add iv span' in
  let cond = Value.fresh ~hint:"inrange" Types.i1 in
  e.Partition.emit (Op.mk (Op.Cmp Op.Lt) ~operands:[ kpre; ub ] ~results:[ cond ]);
  let then_e = Partition.mk_emitter () in
  emit_prefetch then_e ~iv_val:kpre;
  then_e.Partition.emit (Op.mk Op.Yield);
  let else_e = Partition.mk_emitter () in
  else_e.Partition.emit (Op.mk Op.Yield);
  e.Partition.emit
    (Op.mk Op.If ~operands:[ cond ]
       ~regions:
         [ Op.single_block_region (then_e.Partition.finish ());
           Op.single_block_region (else_e.Partition.finish ()) ]);
  (* Acquire this iteration's views. *)
  let whole_graph = Graph.build kernel.Kernel.body in
  List.iter
    (fun ((g : Partition.group), aref_v) ->
      let views =
        List.map
          (fun (l : Op.op) ->
            let r = List.hd l.Op.results in
            let view = Value.fresh ~hint:(Value.hint r) (memdesc_ty (Value.ty r)) in
            Value.Tbl.replace map r view;
            view)
          g.Partition.group_loads
      in
      e.Partition.emit (Op.mk Op.Aref_get ~operands:[ aref_v; it ] ~results:views))
    arefs;
  (* Tile statements, with SMEM-view adaptation as in the partitioner. *)
  let dup = Partition.duplicated_iteration_ops cls loop in
  let reg_cache = Value.Tbl.create 8 in
  let to_register v =
    match Value.Tbl.find_opt reg_cache v with
    | Some t -> t
    | None ->
      let ty =
        match Value.ty v with
        | Types.TMemDesc { shape; dtype } -> Types.tensor shape dtype
        | ty -> ty
      in
      let t = Partition.fresh_result e ~hint:"reg" Op.Local_load [ v ] ty in
      Value.Tbl.replace reg_cache v t;
      t
  in
  (* Triton also pipelines WGMMA on Hopper: in single-dot (GEMM-like)
     loops the dot is issued asynchronously with one MMA left in
     flight, drained after the loop. Multi-dot bodies (attention) keep
     synchronous dots: the softmax reads the scores immediately. *)
  let body_dots =
    List.filter
      (fun (o : Op.op) ->
        o.Op.opcode = Op.Dot && Annotate.class_of cls o = Annotate.Tile)
      body_blk.Op.ops
  in
  let async_dot = match body_dots with [ d ] -> Some d.Op.oid | _ -> None in
  let yielded = ref [] in
  List.iter
    (fun (op : Op.op) ->
      let cls_op = Annotate.class_of cls op in
      if op.Op.opcode = Op.Yield then yielded := List.map (Partition.subst map) op.Op.operands
      else if
        (cls_op = Annotate.Tile && op.Op.opcode <> Op.Yield)
        || (cls_op = Annotate.Iteration && Hashtbl.mem dup op.Op.oid)
      then begin
        let direct = Partition.memdesc_direct_ok whole_graph op in
        let operands =
          List.map
            (fun v ->
              let v' = Partition.subst map v in
              if Types.is_memdesc (Value.ty v') && not direct then to_register v' else v')
            op.Op.operands
        in
        let retype _ ty =
          if direct && op.Op.opcode = Op.Trans
             && List.exists (fun o -> Types.is_memdesc (Value.ty o)) operands
          then memdesc_ty ty
          else ty
        in
        let results =
          List.map
            (fun r ->
              let r' = Value.fresh ~hint:(Value.hint r) (retype r (Value.ty r)) in
              Value.Tbl.replace map r r';
              r')
            op.Op.results
        in
        if async_dot = Some op.Op.oid then begin
          e.Partition.emit (Op.mk Op.Wgmma_issue ~operands ~results ~attrs:op.Op.attrs);
          e.Partition.emit (Op.mk (Op.Wgmma_wait 1))
        end
        else e.Partition.emit (Op.mk op.Op.opcode ~operands ~results ~attrs:op.Op.attrs)
      end)
    body_blk.Op.ops;
  List.iter
    (fun (_, aref_v) -> e.Partition.emit (Op.mk Op.Aref_consumed ~operands:[ aref_v; it ]))
    arefs;
  e.Partition.emit (Op.mk Op.Yield ~operands:!yielded);
  let results = List.map (fun v -> Value.fresh (Value.ty v)) inits in
  let main_loop =
    Op.mk Op.For ~operands:(lb :: ub :: step :: inits) ~results
      ~regions:[ Op.single_block_region ~params:(iv :: iters) (e.Partition.finish ()) ]
  in

  (* Splice: prologue ops stay; aref creates + prefetch prologue + main
     loop replace the original; epilogue uses the new loop results. *)
  let entry = Kernel.entry k in
  let rec split acc = function
    | [] -> na "loop not found in entry block"
    | (op : Op.op) :: rest when op.Op.oid = loop.Op.oid -> (List.rev acc, rest)
    | op :: rest -> split (op :: acc) rest
  in
  let prologue_ops, epilogue = split [] entry.Op.ops in
  let epi_map = Value.Tbl.create 8 in
  List.iter2 (fun o n -> Value.Tbl.replace epi_map o n) loop.Op.results results;
  let epilogue' =
    List.map
      (fun (op : Op.op) ->
        Op.mk op.Op.opcode
          ~operands:(List.map (Partition.subst epi_map) op.Op.operands)
          ~results:op.Op.results ~attrs:op.Op.attrs)
      epilogue
  in
  let drain = if async_dot <> None then [ Op.mk (Op.Wgmma_wait 0) ] else [] in
  entry.Op.ops <-
    prologue_ops @ top.Partition.finish () @ pro.Partition.finish ()
    @ [ main_loop ] @ drain @ epilogue';
  Kernel.set_attr k "sw_stages" (Op.Attr_int stages);
  k
