(** Task-aware partitioning and loop distribution (§III-C).

    Starting from a tile kernel with a TMA-fed main loop, this pass:

    + classifies the loop body into iteration statements and tile
      statements ({!Annotate});
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

open Tawa_tensor
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

type emitter = { emit : Op.op -> unit; finish : unit -> Op.op list }

let mk_emitter () =
  let acc = ref [] in
  { emit = (fun op -> acc := op :: !acc); finish = (fun () -> List.rev !acc) }

let fresh_result e ?hint opcode operands ty =
  let r = Value.fresh ?hint ty in
  e.emit (Op.mk opcode ~operands ~results:[ r ]);
  r

let emit_const_i e i = fresh_result e (Op.Const_int i) [] Types.i32
let emit_binop e kind x y = fresh_result e (Op.Binop kind) [ x; y ] Types.i32

(** The normalized iteration index [it = (iv - lb) / step]. Aref ops
    carry this monotonic index; the lowering derives the slot
    ([it mod D]) and the mbarrier phase count ([it / D]) from it —
    exactly the parity mechanism of §III-E. *)
let emit_iter_index e ~iv ~lb ~step =
  let diff = emit_binop e Op.Sub iv lb in
  let it = emit_binop e Op.Div diff step in
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

type group = {
  dots : Op.op list;       (* the dots this group feeds (first one keys it) *)
  group_loads : Op.op list; (* program order *)
}

(** Assign each load to the first dot (program order) whose [a]/[b]
    operand slice reaches it; loads feeding no dot get singleton
    groups. *)
let group_loads (cls : Annotate.classification) (loop : Op.op) : group list =
  let ops = Annotate.body_ops loop in
  let dots =
    List.filter
      (fun (o : Op.op) ->
        match o.Op.opcode with Op.Dot | Op.Wgmma_issue -> true | _ -> false)
      ops
  in
  (* Body-local backward slice of a value set. *)
  let slice_loads roots =
    let seen = Hashtbl.create 32 in
    let found = ref [] in
    let rec visit v =
      match Value.Tbl.find_opt cls.Annotate.body_def v with
      | None -> ()
      | Some op ->
        if not (Hashtbl.mem seen op.Op.oid) then begin
          Hashtbl.add seen op.Op.oid ();
          if op.Op.opcode = Op.Tma_load then found := op :: !found
          else if not (match op.Op.opcode with Op.Dot | Op.Wgmma_issue -> true | _ -> false)
          then List.iter visit op.Op.operands
        end
    in
    List.iter visit roots;
    !found
  in
  let assignment : (int, Op.op (* dot *)) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (dot : Op.op) ->
      let ab = [ List.nth dot.Op.operands 0; List.nth dot.Op.operands 1 ] in
      List.iter
        (fun (load : Op.op) ->
          if not (Hashtbl.mem assignment load.Op.oid) then
            Hashtbl.replace assignment load.Op.oid dot)
        (slice_loads ab))
    dots;
  (* Collect groups keyed by dot id, preserving load program order. *)
  let keys = ref [] in
  let members : (int, Op.op list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun (load : Op.op) ->
      let key, dot_list =
        match Hashtbl.find_opt assignment load.Op.oid with
        | Some dot -> (dot.Op.oid, [ dot ])
        | None -> (-load.Op.oid, [])
      in
      if not (Hashtbl.mem members key) then keys := (key, dot_list) :: !keys;
      Hashtbl.replace members key
        (load :: Option.value (Hashtbl.find_opt members key) ~default:[]))
    cls.Annotate.loads;
  List.rev_map
    (fun (key, dots) -> { dots; group_loads = List.rev (Hashtbl.find members key) })
    !keys

(* ------------------------------------------------------------------ *)
(* Loop distribution                                                   *)
(* ------------------------------------------------------------------ *)

(* The pieces below distribute a main loop over the two ends of a set
   of arefs. {!warp_specialize} puts the ends in two warp groups;
   {!Sw_pipeline} keeps both in one, the Triton baseline. *)

(* Values (in body) produced by iteration statements that tile
   statements also need: these scalar computations are duplicated into
   the consumer clone (cheap recompute, standard practice). *)
let duplicated_iteration_ops cls (loop : Op.op) =
  let ops = Annotate.body_ops loop in
  let needed = Hashtbl.create 32 in
  let rec visit v =
    match Value.Tbl.find_opt cls.Annotate.body_def v with
    | None -> ()
    | Some op ->
      if Annotate.class_of cls op = Annotate.Iteration
         && op.Op.opcode <> Op.Tma_load
         && not (Hashtbl.mem needed op.Op.oid)
      then begin
        Hashtbl.add needed op.Op.oid ();
        List.iter visit op.Op.operands
      end
  in
  List.iter
    (fun (op : Op.op) ->
      if Annotate.class_of cls op = Annotate.Tile then List.iter visit op.Op.operands)
    ops;
  needed

(* Does the loop body have a cyclic dependence (iteration statements
   reading tile results, or address computation depending on
   loop-carried values)? Either defeats producer/consumer splitting. *)
let check_no_cycles cls (loop : Op.op) =
  let blk = Op.entry_block (List.hd loop.Op.regions) in
  let iter_params =
    match blk.Op.params with _ :: rest -> rest | [] -> na "loop without IV"
  in
  List.iter
    (fun (op : Op.op) ->
      if Annotate.class_of cls op = Annotate.Iteration then
        List.iter
          (fun v ->
            (match Value.Tbl.find_opt cls.Annotate.body_def v with
            | Some def when Annotate.class_of cls def = Annotate.Tile ->
              na "address computation depends on tile statement %s"
                (Op.opcode_name def.Op.opcode)
            | _ -> ());
            if List.exists (Value.equal v) iter_params then
              na "address computation depends on loop-carried value")
          op.Op.operands)
    (Annotate.body_ops loop)

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

(** A kernel's TMA-fed main loop, classified and grouped. *)
type main_loop = {
  loop : Op.op;
  cls : Annotate.classification;
  groups : group list;
  lb : Value.t;
  ub : Value.t;
  step : Value.t;
  inits : Value.t list;
  iv : Value.t;           (* the body's induction variable *)
  iters : Value.t list;   (* the body's loop-carried parameters *)
  graph : Graph.t;        (* use-def chains of the kernel holding [loop] *)
}

(** [main_loop k] finds and classifies the main loop of [k], the
    caller's clone, whose graph the distribution then reads. Raises
    {!Pass.Not_applicable} when there is no TMA-fed loop or its
    dependence structure cannot be split. *)
let main_loop (k : Kernel.t) =
  let loop =
    match find_pipeline_loop k with
    | Some l -> l
    | None -> na "no TMA-fed loop found"
  in
  let cls = Annotate.classify loop in
  if cls.Annotate.loads = [] then na "loop has no TMA loads";
  check_no_cycles cls loop;
  let groups = group_loads cls loop in
  let lb, ub, step, inits =
    match loop.Op.operands with
    | lb :: ub :: step :: inits -> (lb, ub, step, inits)
    | _ -> na "malformed loop"
  in
  let iv, iters =
    match (Op.entry_block (List.hd loop.Op.regions)).Op.params with
    | iv :: iters -> (iv, iters)
    | [] -> na "loop without IV"
  in
  { loop; cls; groups; lb; ub; step; inits; iv; iters; graph = Graph.build k.Kernel.body }

(** [create_arefs e ml ~hint ~depth] emits a [depth]-slot aref per load
    group of [ml] into [e]; its payload is the group's tiles as SMEM
    views. *)
let create_arefs e ml ~hint ~depth =
  List.map
    (fun g ->
      let payload =
        List.map
          (fun (load : Op.op) -> memdesc_ty_of_tensor (Value.ty (List.hd load.Op.results)))
          g.group_loads
      in
      let v = Value.fresh ~hint (Types.aref payload depth) in
      e.emit (Op.mk (Op.Aref_create depth) ~results:[ v ]);
      (g, v))
    ml.groups

(** [counted_loop ~hint ~lb ~ub ~step body] is a [for] with no carried
    values whose body [body e iv] emits into [e]. *)
let counted_loop ~hint ~lb ~ub ~step body =
  let iv = Value.fresh ~hint Types.i32 in
  let e = mk_emitter () in
  body e iv;
  e.emit (Op.mk Op.Yield);
  Op.mk Op.For ~operands:[ lb; ub; step ]
    ~regions:[ Op.single_block_region ~params:[ iv ] (e.finish ()) ]

(** [emit_if e cond body] emits [if cond { body } else {}], the
    then-branch emitted by [body] into its own emitter. *)
let emit_if e cond body =
  let then_e = mk_emitter () in
  body then_e;
  then_e.emit (Op.mk Op.Yield);
  let else_e = mk_emitter () in
  else_e.emit (Op.mk Op.Yield);
  e.emit
    (Op.mk Op.If ~operands:[ cond ]
       ~regions:
         [ Op.single_block_region (then_e.finish ()); Op.single_block_region (else_e.finish ()) ])

(** [emit_produce e ml arefs ~iv] emits into [e] the iteration
    statements of the iteration whose induction value is [iv], with an
    [aref_put] of each group's tiles after its last load. *)
let emit_produce e ml arefs ~iv =
  let map = Value.Tbl.create 32 in
  Value.Tbl.replace map ml.iv iv;
  let it = emit_iter_index e ~iv ~lb:ml.lb ~step:ml.step in
  List.iter
    (fun (op : Op.op) ->
      if Annotate.class_of ml.cls op = Annotate.Iteration then begin
        e.emit (clone_with map op);
        List.iter
          (fun (g, aref_v) ->
            if (List.nth g.group_loads (List.length g.group_loads - 1)).Op.oid = op.Op.oid then
              let payload =
                List.map (fun (l : Op.op) -> subst map (List.hd l.Op.results)) g.group_loads
              in
              e.emit (Op.mk Op.Aref_put ~operands:(aref_v :: it :: payload)))
          arefs
      end)
    (Annotate.body_ops ml.loop)

(** [consumer_loop ml arefs ~before_gets ~emit_tile] builds the loop
    that consumes [arefs]. Each iteration runs [before_gets e iv], gets
    every group's views, then the tile statements (and the iteration
    statements they need), their SMEM operands adapted to each use and
    each emitted by [emit_tile e op], then releases every group and
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
  let e = mk_emitter () in
  let it = emit_iter_index e ~iv ~lb:ml.lb ~step:ml.step in
  before_gets e iv;
  (* Acquire every group's views; map load results to SMEM views. *)
  List.iter
    (fun (g, aref_v) ->
      let views =
        List.map
          (fun (l : Op.op) -> copy ~retype:memdesc_ty_of_tensor (List.hd l.Op.results))
          g.group_loads
      in
      e.emit (Op.mk Op.Aref_get ~operands:[ aref_v; it ] ~results:views))
    arefs;
  let dup = duplicated_iteration_ops ml.cls ml.loop in
  (* Local-load cache: memdesc view -> register tile. *)
  let reg_cache : Value.t Value.Tbl.t = Value.Tbl.create 8 in
  let to_register v =
    match Value.Tbl.find_opt reg_cache v with
    | Some t -> t
    | None ->
      let ty =
        match Value.ty v with
        | Types.TMemDesc { shape; dtype } -> Types.tensor shape dtype
        | ty -> ty
      in
      let t = fresh_result e ~hint:"reg" Op.Local_load [ v ] ty in
      Value.Tbl.replace reg_cache v t;
      t
  in
  let yielded = ref [] in
  List.iter
    (fun (op : Op.op) ->
      match Annotate.class_of ml.cls op with
      | _ when op.Op.opcode = Op.Yield -> yielded := List.map (subst map) op.Op.operands
      | Annotate.Iteration when not (Hashtbl.mem dup op.Op.oid) -> ()
      | _ ->
        let operands =
          List.mapi
            (fun i v ->
              let v' = subst map v in
              if Types.is_memdesc (Value.ty v') && not (smem_operand_ok ml.graph op i) then
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
        emit_tile e (clone_with ~operands ~retype map op))
    (Annotate.body_ops ml.loop);
  (* Release every group's slot; the pipelining pass may later delay
     these (§III-D.1). *)
  List.iter (fun (_, aref_v) -> e.emit (Op.mk Op.Aref_consumed ~operands:[ aref_v; it ])) arefs;
  e.emit (Op.mk Op.Yield ~operands:!yielded);
  let results = List.map (fun v -> Value.fresh (Value.ty v)) ml.inits in
  ( Op.mk Op.For ~operands:(ml.lb :: ml.ub :: ml.step :: ml.inits) ~results
      ~regions:[ Op.single_block_region ~params:(iv :: iters) (e.finish ()) ],
    results )

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
  let top = mk_emitter () in
  let arefs = create_arefs top ml ~hint:"aref" ~depth:options.Options.aref_depth in
  let producer =
    counted_loop ~hint:"k" ~lb:ml.lb ~ub:ml.ub ~step:ml.step (fun e iv ->
        emit_produce e ml arefs ~iv)
  in
  let consumer, results =
    consumer_loop ml arefs ~before_gets:(fun _ _ -> ()) ~emit_tile:(fun e -> e.emit)
  in
  (* The epilogue moves to the consumer. *)
  let prologue, epilogue = split_entry k ml results in
  let entry = Kernel.entry k in
  let wg =
    Op.mk Op.Warp_group
      ~regions:
        [ Op.single_block_region [ producer ]; Op.single_block_region (consumer :: epilogue) ]
      ~attrs:[ ("roles", Op.Attr_string "producer,consumer") ]
  in
  entry.Op.ops <- prologue @ top.finish () @ [ wg ];

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
