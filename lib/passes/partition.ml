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
    exactly the IR of the paper's Fig. 2c. *)

open Tawa_tensor
open Tawa_ir

let na = Pass.na

let subst map v = match Value.Tbl.find_opt map v with Some v' -> v' | None -> v

(* Clone [op] with operands substituted through [map]; fresh results are
   recorded in [map]. [retype] optionally adjusts each result type. *)
let clone_with ?(retype = fun _ ty -> ty) (map : Value.t Value.Tbl.t) (op : Op.op) : Op.op =
  if op.Op.regions <> [] then na "nested control flow in pipelined loop body";
  let operands = List.map (subst map) op.Op.operands in
  let results =
    List.map
      (fun r ->
        let r' = Value.fresh ~hint:(Value.hint r) (retype r (Value.ty r)) in
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
(* The warp-specialization transform                                   *)
(* ------------------------------------------------------------------ *)

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

(** Ops whose operands may be SMEM views directly (everything else gets
    a [local_load] inserted). The transpose case covers WGMMA's free
    descriptor-level transpose, legal only when the transposed view
    feeds dots. *)
let memdesc_direct_ok (g : Graph.t) (op : Op.op) =
  match op.Op.opcode with
  | Op.Dot | Op.Wgmma_issue -> true
  | Op.Trans ->
    (* Legal only when every user is a dot reading the transposed view
       as its a/b operand (never as the accumulator). *)
    List.for_all
      (fun (user : Op.op) ->
        match (user.Op.opcode, user.Op.operands) with
        | (Op.Dot | Op.Wgmma_issue), _ :: _ :: rest ->
          List.for_all
            (fun r -> not (List.exists (Value.equal r) rest))
            op.Op.results
        | _ -> false)
      (List.concat_map (fun r -> Graph.users g r) op.Op.results)
  | _ -> false

let memdesc_ty_of_tensor ty =
  match ty with
  | Types.TTensor { shape; dtype } -> Types.memdesc shape dtype
  | _ -> ty

(** [warp_specialize ~options kernel] returns a new, warp-specialized
    kernel with [options.aref_depth]-slot arefs for
    [options.num_consumer_wgs] consumer warp groups; raises
    {!Pass.Not_applicable} when the kernel has no TMA-fed main loop or
    its dependence structure cannot be split. *)
let warp_specialize ?(options = Options.default_options) (kernel : Kernel.t) : Kernel.t =
  let k = Kernel.clone kernel in
  let loop =
    match find_pipeline_loop k with
    | Some l -> l
    | None -> na "no TMA-fed loop found"
  in
  let cls = Annotate.classify loop in
  if cls.Annotate.loads = [] then na "loop has no TMA loads";
  check_no_cycles cls loop;
  let groups = group_loads cls loop in
  let whole_graph = Graph.build k.Kernel.body in
  let depth = options.Options.aref_depth in
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

  (* --- aref creation (top level) --- *)
  let top_emitter = mk_emitter () in
  let arefs =
    List.map
      (fun g ->
        let payload =
          List.map
            (fun (load : Op.op) -> memdesc_ty_of_tensor (Value.ty (List.hd load.Op.results)))
            g.group_loads
        in
        let v = Value.fresh ~hint:"aref" (Types.aref payload depth) in
        top_emitter.emit (Op.mk (Op.Aref_create depth) ~results:[ v ]);
        (g, v))
      groups
  in

  (* --- producer loop --- *)
  let producer_loop =
    let map = Value.Tbl.create 64 in
    let iv_p = Value.fresh ~hint:"k" Types.i32 in
    Value.Tbl.replace map orig_iv iv_p;
    let e = mk_emitter () in
    let slot = emit_iter_index e ~iv:iv_p ~lb ~step in
    let loaded : (int, Value.t) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun (op : Op.op) ->
        if Annotate.class_of cls op = Annotate.Iteration then begin
          let cloned = clone_with map op in
          e.emit cloned;
          if op.Op.opcode = Op.Tma_load then
            Hashtbl.replace loaded op.Op.oid (List.hd cloned.Op.results)
        end;
        (* After the last load of a group, publish the slot. *)
        List.iter
          (fun (g, aref_v) ->
            let last = List.nth g.group_loads (List.length g.group_loads - 1) in
            if last.Op.oid = op.Op.oid then begin
              let payload =
                List.map (fun (l : Op.op) -> Hashtbl.find loaded l.Op.oid) g.group_loads
              in
              e.emit (Op.mk Op.Aref_put ~operands:((aref_v :: [ slot ]) @ payload))
            end)
          arefs)
      body_blk.Op.ops;
    e.emit (Op.mk Op.Yield);
    Op.mk Op.For
      ~operands:[ lb; ub; step ]
      ~regions:[ Op.single_block_region ~params:[ iv_p ] (e.finish ()) ]

  (* --- consumer loop --- *)
  and consumer_parts =
    let map = Value.Tbl.create 64 in
    let iv_c = Value.fresh ~hint:"k" Types.i32 in
    Value.Tbl.replace map orig_iv iv_c;
    let iters_c =
      List.map
        (fun it ->
          let it' = Value.fresh ~hint:(Value.hint it) (Value.ty it) in
          Value.Tbl.replace map it it';
          it')
        orig_iters
    in
    let e = mk_emitter () in
    let slot = emit_iter_index e ~iv:iv_c ~lb ~step in
    (* Acquire every group's views; map load results to SMEM views. *)
    List.iter
      (fun (g, aref_v) ->
        let views =
          List.map
            (fun (l : Op.op) ->
              let r = List.hd l.Op.results in
              let view =
                Value.fresh ~hint:(Value.hint r) (memdesc_ty_of_tensor (Value.ty r))
              in
              Value.Tbl.replace map r view;
              view)
            g.group_loads
        in
        e.emit (Op.mk Op.Aref_get ~operands:[ aref_v; slot ] ~results:views))
      arefs;
    let dup = duplicated_iteration_ops cls loop in
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
        let cls_op = Annotate.class_of cls op in
        let should_clone =
          (cls_op = Annotate.Tile && op.Op.opcode <> Op.Yield)
          || (cls_op = Annotate.Iteration && Hashtbl.mem dup op.Op.oid)
        in
        if op.Op.opcode = Op.Yield then
          yielded := List.map (subst map) op.Op.operands
        else if should_clone then begin
          (* Adapt operands that now live in SMEM. *)
          let direct = memdesc_direct_ok whole_graph op in
          let operands =
            List.map
              (fun v ->
                let v' = subst map v in
                if Types.is_memdesc (Value.ty v') && not direct then to_register v'
                else v')
              op.Op.operands
          in
          let retype r ty =
            if direct && op.Op.opcode = Op.Trans
               && List.exists (fun o -> Types.is_memdesc (Value.ty o)) operands
            then memdesc_ty_of_tensor ty
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
          e.emit (Op.mk op.Op.opcode ~operands ~results ~attrs:op.Op.attrs)
        end)
      body_blk.Op.ops;
    (* Release every group's slot; the pipelining pass may later delay
       these (§III-D.1). *)
    List.iter
      (fun (_, aref_v) -> e.emit (Op.mk Op.Aref_consumed ~operands:[ aref_v; slot ]))
      arefs;
    e.emit (Op.mk Op.Yield ~operands:!yielded);
    let results = List.map (fun v -> Value.fresh (Value.ty v)) inits in
    let body = Op.single_block_region ~params:(iv_c :: iters_c) (e.finish ()) in
    let loop_op =
      Op.mk Op.For ~operands:(lb :: ub :: step :: inits) ~results
        ~regions:[ body ]
    in
    (loop_op, results)
  in
  let consumer_loop, consumer_results = consumer_parts in

  (* --- epilogue: ops after the original loop move to the consumer --- *)
  let entry = Kernel.entry k in
  let rec split_at_loop acc = function
    | [] -> na "loop not found in entry block"
    | (op : Op.op) :: rest when op.Op.oid = loop.Op.oid -> (List.rev acc, rest)
    | op :: rest -> split_at_loop (op :: acc) rest
  in
  let prologue, epilogue = split_at_loop [] entry.Op.ops in
  let epi_map = Value.Tbl.create 8 in
  List.iter2 (fun o n -> Value.Tbl.replace epi_map o n) loop.Op.results consumer_results;
  let consumer_ops =
    consumer_loop
    :: List.map
         (fun (op : Op.op) ->
           if op.Op.regions <> [] then na "control flow in epilogue";
           let operands = List.map (subst epi_map) op.Op.operands in
           Op.mk op.Op.opcode ~operands ~results:op.Op.results ~attrs:op.Op.attrs)
         epilogue
  in

  (* --- assemble the warp_group op --- *)
  let wg =
    Op.mk Op.Warp_group
      ~regions:
        [ Op.single_block_region [ producer_loop ];
          Op.single_block_region consumer_ops ]
      ~attrs:[ ("roles", Op.Attr_string "producer,consumer") ]
  in
  entry.Op.ops <- prologue @ top_emitter.finish () @ [ wg ];

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

  Kernel.set_attr k "num_consumer_wgs" (Op.Attr_int options.Options.num_consumer_wgs);
  k
