(** Task-aware partitioning and loop distribution (§III-C).

    Starting from a tile kernel with a TMA-fed main loop, this pass:

    + classifies the loop body (partition annotation, §III-C.1): the
      TMA loads and the body-local backward slice of their operands,
      the address arithmetic, are {e iteration statements}, which the
      producer warp group runs; every other op (dot, softmax
      arithmetic, reductions, stores) is a {e tile statement}, which
      the consumer warp group(s) run;
    + groups TMA loads whose results feed the same dot into one aref
      channel (the tuple-grouping optimization of §III-C.2), and creates
      a [D]-slot aref per group;
    + distributes the loop: the producer warp group gets a clone of the
      loop carrying the iteration statements and the loads, publishing
      each group's tiles with [aref_put] at slot [k mod D]; the consumer
      warp group gets a clone carrying the tile statements, acquiring
      tiles with [aref_get] and releasing them with [aref_consumed];
    + attaches the epilogue to the consumer region and sinks prologue
      ops used by a single warp group into that group's region.

    The result is a [tawa.warp_group] op with one region per role,
    exactly the IR of the paper's Fig. 2c. The distribution's pieces
    ({!main_loop} to {!split_entry}) also build the software-pipelined
    baseline ({!Sw_pipeline}), which keeps both ends of every aref in
    one warp group. *)

open Tawa_ir

let na = Pass.na

let subst map v = match Value.Tbl.find_opt map v with Some v' -> v' | None -> v

(* Clone [op] with fresh results, recorded in [map], of the types
   [retype] gives. Its operands are [operands], by default [op]'s
   substituted through [map]. An op with regions is not cloned. *)
let clone_with ?operands ?(retype = Fun.id) (map : Value.t Value.Tbl.t) (op : Op.op) : Op.op =
  if op.Op.regions <> [] then na "nested control flow in pipelined loop body";
  let operands =
    match operands with Some o -> o | None -> List.map (subst map) op.Op.operands
  in
  let results =
    List.map
      (fun r ->
        let r' = Value.fresh ~hint:(Value.hint r) (retype (Value.ty r)) in
        Value.Tbl.replace map r r';
        r')
      op.Op.results
  in
  Op.mk op.Op.opcode ~operands ~results ~attrs:op.Op.attrs

(** The normalized iteration index [it = (iv - lb) / step]. Aref ops
    carry this monotonic index; the lowering derives the slot
    ([it mod D]) and the mbarrier phase count ([it / D]) from it —
    exactly the parity mechanism of §III-E. *)
let emit_iter_index b ~iv ~lb ~step =
  let it = Builder.div b (Builder.sub b iv lb) step in
  Value.set_hint it "it";
  it

(* ------------------------------------------------------------------ *)
(* Candidate loop discovery                                            *)
(* ------------------------------------------------------------------ *)

let loop_has_load (op : Op.op) =
  op.Op.opcode = Op.For
  && List.exists
       (fun (o : Op.op) -> o.Op.opcode = Op.Tma_load)
       (Op.entry_block (List.hd op.Op.regions)).Op.ops

let find_pipeline_loop (k : Kernel.t) =
  List.find_opt loop_has_load (Kernel.entry k).Op.ops

(* ------------------------------------------------------------------ *)
(* aref grouping                                                       *)
(* ------------------------------------------------------------------ *)

let is_dot (op : Op.op) = match op.Op.opcode with Op.Dot | Op.Wgmma_issue -> true | _ -> false

(** Tuple grouping: each load joins the group of the first dot (program
    order) whose [a]/[b] operand slice in [body] reaches it; a load
    feeding no dot is a group alone. Each group lists its loads, and
    the groups come in the order of their first loads. *)
let group_loads body ops loads : Op.op list list =
  let feeds = Hashtbl.create 8 in
  List.iter
    (fun (dot : Op.op) ->
      List.iter
        (fun (o : Op.op) ->
          if o.Op.opcode = Op.Tma_load && not (Hashtbl.mem feeds o.Op.oid) then
            Hashtbl.replace feeds o.Op.oid dot.Op.oid)
        (Graph.slice body
           ~stop:(fun o -> o.Op.opcode = Op.Tma_load || is_dot o)
           (List.filteri (fun i _ -> i < 2) dot.Op.operands)))
    (List.filter is_dot ops);
  let key (l : Op.op) = Option.value (Hashtbl.find_opt feeds l.Op.oid) ~default:(-l.Op.oid) in
  let keys = List.fold_left (fun ks l -> if List.mem (key l) ks then ks else ks @ [ key l ]) [] loads in
  List.map (fun k -> List.filter (fun l -> key l = k) loads) keys

(* ------------------------------------------------------------------ *)
(* Loop distribution                                                   *)
(* ------------------------------------------------------------------ *)

(* The pieces below distribute a main loop over the two ends of a set
   of arefs. {!warp_specialize} puts the ends in two warp groups;
   {!Sw_pipeline} keeps both in one, the Triton baseline. *)

(** A kernel's TMA-fed main loop, classified and grouped. *)
type main_loop = {
  loop : Op.op;
  body : Graph.t;         (* use-def chains of [loop]'s body alone *)
  iteration : (int, unit) Hashtbl.t; (* ids of the iteration statements *)
  groups : Op.op list list; (* each aref's loads, in program order *)
  lb : Value.t;
  ub : Value.t;
  step : Value.t;
  inits : Value.t list;
  iv : Value.t;           (* the body's induction variable *)
  iters : Value.t list;   (* the body's loop-carried parameters *)
}

(** The ops of [ml]'s loop body, in program order. *)
let body_ops ml = (Op.entry_block (List.hd ml.loop.Op.regions)).Op.ops

(** Is [op] of [ml]'s body an iteration statement (the producer's)
    rather than a tile statement? *)
let is_iteration ml (op : Op.op) = Hashtbl.mem ml.iteration op.Op.oid

(** [main_loop k] finds and classifies the main loop of [k], the
    caller's clone, whose body the distribution then reads. Raises
    {!Pass.Not_applicable} when there is no TMA-fed loop, or when
    address computation reads a loop-carried value, a cyclic
    dependence that defeats producer/consumer splitting. (An iteration
    statement never reads a tile statement: the slice would hold its
    definition.) *)
let main_loop (k : Kernel.t) =
  let loop =
    match find_pipeline_loop k with
    | Some l -> l
    | None -> na "no TMA-fed loop found"
  in
  let lb, ub, step, inits =
    match loop.Op.operands with
    | lb :: ub :: step :: inits -> (lb, ub, step, inits)
    | _ -> na "malformed loop"
  in
  let region = List.hd loop.Op.regions in
  let iv, iters =
    match (Op.entry_block region).Op.params with
    | iv :: iters -> (iv, iters)
    | [] -> na "loop without IV"
  in
  let body = Graph.build region in
  let ops = (Op.entry_block region).Op.ops in
  let loads = List.filter (fun (o : Op.op) -> o.Op.opcode = Op.Tma_load) ops in
  let iteration = Hashtbl.create 32 in
  List.iter
    (fun (op : Op.op) ->
      if List.exists (fun v -> List.exists (Value.equal v) iters) op.Op.operands then
        na "address computation depends on loop-carried value";
      Hashtbl.replace iteration op.Op.oid ())
    (Graph.slice body (List.concat_map (fun (l : Op.op) -> l.Op.results) loads));
  { loop; body; iteration; groups = group_loads body ops loads; lb; ub; step; inits; iv; iters }

(* The iteration statements, loads aside, whose values tile statements
   read: the consumer recomputes them (cheap scalar recompute, standard
   practice). *)
let recomputed ml =
  let tile op = not (is_iteration ml op) in
  List.filter
    (fun (op : Op.op) -> is_iteration ml op && op.Op.opcode <> Op.Tma_load)
    (Graph.slice ml.body
       ~stop:(fun op -> tile op || op.Op.opcode = Op.Tma_load)
       (List.concat_map (fun (op : Op.op) -> if tile op then op.Op.operands else []) (body_ops ml)))

(** May operand [i] of [op] stay an SMEM view? A dot reads its A and B
    operands from SMEM, but accumulates in registers. A transpose stays
    a free descriptor-level view (WGMMA transposes for nothing) only
    when every user is a dot reading it as A or B. Every other operand
    gets a [local_load]. *)
let smem_operand_ok (g : Graph.t) (op : Op.op) i =
  match op.Op.opcode with
  | Op.Dot | Op.Wgmma_issue -> i < 2
  | Op.Trans ->
    List.for_all
      (fun (user : Op.op) ->
        match (user.Op.opcode, user.Op.operands) with
        | (Op.Dot | Op.Wgmma_issue), [ _; _; acc ] ->
          not (List.exists (Value.equal acc) op.Op.results)
        | _ -> false)
      (List.concat_map (Graph.users g) op.Op.results)
  | _ -> false

let memdesc_ty_of_tensor ty =
  match ty with
  | Types.TTensor { shape; dtype } -> Types.memdesc shape dtype
  | _ -> ty

(** [create_arefs b ml ~hint ~depth] emits a [depth]-slot aref per load
    group of [ml] into [b]; its payload is the group's tiles as SMEM
    views. *)
let create_arefs b ml ~hint ~depth =
  List.map
    (fun loads ->
      let payload =
        List.map
          (fun (load : Op.op) -> memdesc_ty_of_tensor (Value.ty (List.hd load.Op.results)))
          loads
      in
      let v = Value.fresh ~hint (Types.aref payload depth) in
      Builder.append b (Op.mk (Op.Aref_create depth) ~results:[ v ]);
      (loads, v))
    ml.groups

(** [emit_produce b ml arefs ~iv] emits into [b] the iteration
    statements of the iteration whose induction value is [iv], with an
    [aref_put] of each group's tiles after its last load. *)
let emit_produce b ml arefs ~iv =
  let map = Value.Tbl.create 32 in
  Value.Tbl.replace map ml.iv iv;
  let it = emit_iter_index b ~iv ~lb:ml.lb ~step:ml.step in
  List.iter
    (fun (op : Op.op) ->
      if is_iteration ml op then begin
        Builder.append b (clone_with map op);
        List.iter
          (fun (loads, aref_v) ->
            if List.hd (List.rev loads) == op then
              let payload = List.map (fun (l : Op.op) -> subst map (List.hd l.Op.results)) loads in
              Builder.append b (Op.mk Op.Aref_put ~operands:(aref_v :: it :: payload)))
          arefs
      end)
    (body_ops ml)

(** [consumer_loop ml arefs ~before_gets ~emit_tile] builds the loop
    that consumes [arefs]. Each iteration runs [before_gets b iv], gets
    every group's views, then the tile statements (and the iteration
    statements they need), their SMEM operands adapted to each use and
    each emitted by [emit_tile b op], then releases every group and
    yields. Returns the loop and its results. *)
let consumer_loop ml arefs ~before_gets ~emit_tile =
  let map = Value.Tbl.create 64 in
  let copy ?(retype = Fun.id) v =
    let v' = Value.fresh ~hint:(Value.hint v) (retype (Value.ty v)) in
    Value.Tbl.replace map v v';
    v'
  in
  let iv = copy ml.iv in
  let iters = List.map copy ml.iters in
  let b = Builder.block_builder () in
  let it = emit_iter_index b ~iv ~lb:ml.lb ~step:ml.step in
  before_gets b iv;
  (* Acquire every group's views; map load results to SMEM views. *)
  List.iter
    (fun (loads, aref_v) ->
      let views =
        List.map (fun (l : Op.op) -> copy ~retype:memdesc_ty_of_tensor (List.hd l.Op.results)) loads
      in
      Builder.append b (Op.mk Op.Aref_get ~operands:[ aref_v; it ] ~results:views))
    arefs;
  let dup = recomputed ml in
  (* Local-load cache: memdesc view -> register tile. *)
  let reg_cache : Value.t Value.Tbl.t = Value.Tbl.create 8 in
  let to_register v =
    match Value.Tbl.find_opt reg_cache v with
    | Some t -> t
    | None ->
      let t = Builder.local_load b v in
      Value.set_hint t "reg";
      Value.Tbl.replace reg_cache v t;
      t
  in
  let yielded = ref [] in
  List.iter
    (fun (op : Op.op) ->
      if op.Op.opcode = Op.Yield then yielded := List.map (subst map) op.Op.operands
      else if is_iteration ml op && not (List.memq op dup) then ()
      else begin
        let operands =
          List.mapi
            (fun i v ->
              let v' = subst map v in
              if Types.is_memdesc (Value.ty v') && not (smem_operand_ok ml.body op i) then
                to_register v'
              else v')
            op.Op.operands
        in
        (* A transpose left in SMEM is a view. *)
        let retype =
          if op.Op.opcode = Op.Trans
             && List.exists (fun o -> Types.is_memdesc (Value.ty o)) operands
          then memdesc_ty_of_tensor
          else Fun.id
        in
        emit_tile b (clone_with ~operands ~retype map op)
      end)
    (body_ops ml);
  (* Release every group's slot; the pipelining pass may later delay
     these (§III-D.1). *)
  List.iter (fun (_, aref_v) -> Builder.append b (Op.mk Op.Aref_consumed ~operands:[ aref_v; it ])) arefs;
  Builder.append b (Op.mk Op.Yield ~operands:!yielded);
  let results = List.map (fun v -> Value.fresh (Value.ty v)) ml.inits in
  ( Op.mk Op.For ~operands:(ml.lb :: ml.ub :: ml.step :: ml.inits) ~results
      ~regions:[ Op.single_block_region ~params:(iv :: iters) (Builder.finish b) ],
    results )

(** [emit_async_dot b loop dot ~in_flight op] emits [op], which is
    [dot] of [loop]'s body or a clone of it, as a [wgmma_issue] and a
    [wgmma_wait]. WGMMA writes its accumulator only when its group
    retires, so the wait leaves [in_flight] groups pending only when
    the body's [yield] is the one read of the product and [dot]'s
    accumulator the one read of the loop-carried value the product
    becomes; otherwise it leaves none. *)
let emit_async_dot b (loop : Op.op) (dot : Op.op) ~in_flight (op : Op.op) =
  let region = List.hd loop.Op.regions in
  let g = Graph.build region in
  let blk = Op.entry_block region in
  let yield = List.hd (List.rev blk.Op.ops) in
  let read_once_by (reader : Op.op) v =
    match Graph.users g v with [ u ] -> u == reader | _ -> false
  in
  let product = List.hd dot.Op.results in
  let stays =
    read_once_by yield product
    && List.for_all2
         (fun y carried ->
           (not (Value.equal y product))
           || (read_once_by dot carried && Value.equal carried (List.nth dot.Op.operands 2)))
         yield.Op.operands (List.tl blk.Op.params)
  in
  Builder.append b
    (Op.mk Op.Wgmma_issue ~operands:op.Op.operands ~results:op.Op.results ~attrs:op.Op.attrs);
  Builder.append b (Op.mk (Op.Wgmma_wait (if stays then in_flight else 0)))

(** [split_entry k ml results] splits the entry block of [k] around the
    main loop: the ops before it, and the ops after it reading
    [results] where they read the loop's. Raises {!Pass.Not_applicable}
    when the ops after the loop hold control flow, which the
    distribution does not copy. *)
let split_entry (k : Kernel.t) ml results =
  let rec split acc = function
    | [] -> na "loop not found in entry block"
    | (op : Op.op) :: rest when op.Op.oid = ml.loop.Op.oid -> (List.rev acc, rest)
    | op :: rest -> split (op :: acc) rest
  in
  let prologue, epilogue = split [] (Kernel.entry k).Op.ops in
  let map = Value.Tbl.create 8 in
  List.iter2 (Value.Tbl.replace map) ml.loop.Op.results results;
  ( prologue,
    List.map
      (fun (op : Op.op) ->
        if op.Op.regions <> [] then na "control flow in epilogue";
        Op.mk op.Op.opcode ~operands:(List.map (subst map) op.Op.operands)
          ~results:op.Op.results ~attrs:op.Op.attrs)
      epilogue )

(* ------------------------------------------------------------------ *)
(* The warp-specialization transform                                   *)
(* ------------------------------------------------------------------ *)

(** [warp_specialize ~options kernel] returns a new, warp-specialized
    kernel with [options.aref_depth]-slot arefs; raises
    {!Pass.Not_applicable} when the kernel has no TMA-fed main loop or
    its dependence structure cannot be split. The consumer count is a
    launch attribute that {!Manager.compile} stamps. *)
let warp_specialize ?(options = Options.default_options) (kernel : Kernel.t) : Kernel.t =
  let k = Kernel.clone kernel in
  let ml = main_loop k in
  let top = Builder.block_builder () in
  let arefs = create_arefs top ml ~hint:"aref" ~depth:options.Options.aref_depth in
  let producer = Builder.block_builder () in
  ignore
    (Builder.for_ producer ~hint:"k" ~lb:ml.lb ~ub:ml.ub ~step:ml.step ~inits:[] (fun iv _ ->
         emit_produce producer ml arefs ~iv;
         []));
  let consumer, results =
    consumer_loop ml arefs ~before_gets:(fun _ _ -> ()) ~emit_tile:Builder.append
  in
  (* The epilogue moves to the consumer. *)
  let prologue, epilogue = split_entry k ml results in
  let entry = Kernel.entry k in
  let wg =
    Op.mk Op.Warp_group
      ~regions:
        [ Op.single_block_region (Builder.finish producer);
          Op.single_block_region (consumer :: epilogue) ]
      ~attrs:[ ("roles", Op.Attr_string "producer,consumer") ]
  in
  entry.Op.ops <- prologue @ Builder.finish top @ [ wg ];

  (* --- sink prologue ops used by exactly one warp group --- *)
  let membership : (int, int option) Hashtbl.t = Hashtbl.create 64 in
  List.iteri
    (fun i (r : Op.region) ->
      Op.iter_region (fun op -> Hashtbl.replace membership op.Op.oid (Some i)) r)
    wg.Op.regions;
  let g = Graph.build k.Kernel.body in
  let sunk : (int * Op.op) list ref = ref [] in
  let top_ops = ref entry.Op.ops in
  List.iter
    (fun (op : Op.op) ->
      if Graph.is_pure op && op.Op.results <> [] then begin
        let users = List.concat_map (fun r -> Graph.users g r) op.Op.results in
        let homes =
          List.map
            (fun (u : Op.op) ->
              Option.value (Hashtbl.find_opt membership u.Op.oid) ~default:None)
            users
        in
        match homes with
        | Some i :: rest when List.for_all (( = ) (Some i)) rest ->
          Hashtbl.replace membership op.Op.oid (Some i);
          sunk := (i, op) :: !sunk;
          top_ops := List.filter (fun (o : Op.op) -> o.Op.oid <> op.Op.oid) !top_ops
        | _ -> ()
      end)
    (List.rev prologue);
  List.iteri
    (fun i (r : Op.region) ->
      let extra =
        List.filter_map (fun (j, op) -> if i = j then Some op else None) !sunk
      in
      (* !sunk is in reverse scan order = reverse program order; restore. *)
      let blk = Op.entry_block r in
      blk.Op.ops <- extra @ blk.Op.ops)
    wg.Op.regions;
  entry.Op.ops <- !top_ops;
  k
