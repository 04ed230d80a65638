(** Use-def chains over a region: the defining op and the users of
    each value, and the backward walk along them ({!slice}) that
    partition annotation, tuple grouping and the coarse pipeline's
    stage T share (§III-C, §III-D.2). *)

type t = {
  def_of : Op.op Value.Tbl.t;        (* result value -> defining op *)
  users_of : Op.op list Value.Tbl.t; (* value -> ops that use it *)
}

let build (region : Op.region) =
  let def_of = Value.Tbl.create 128 in
  let users_of = Value.Tbl.create 128 in
  Op.iter_region
    (fun op ->
      List.iter (fun r -> Value.Tbl.replace def_of r op) op.Op.results;
      List.iter
        (fun v ->
          let prev = Option.value (Value.Tbl.find_opt users_of v) ~default:[] in
          Value.Tbl.replace users_of v (op :: prev))
        op.Op.operands)
    region;
  { def_of; users_of }

let def g v = Value.Tbl.find_opt g.def_of v
let users g v = Option.value (Value.Tbl.find_opt g.users_of v) ~default:[]

(** The ops reached walking back along use-def chains from [roots],
    each once, in the order the walk reaches them. A value with no
    definition in [g] ends the walk: a block parameter, a kernel
    parameter, or, when [g] was built from a loop's region, a value of
    the code around the loop. An op that [stop] accepts is kept, but
    the walk does not go on through its operands. *)
let slice ?(stop = fun _ -> false) g (roots : Value.t list) : Op.op list =
  let seen = Hashtbl.create 64 in
  let out = ref [] in
  let rec visit v =
    match def g v with
    | Some op when not (Hashtbl.mem seen op.Op.oid) ->
      Hashtbl.add seen op.Op.oid ();
      out := op :: !out;
      if not (stop op) then List.iter visit op.Op.operands
    | _ -> ()
  in
  List.iter visit roots;
  List.rev !out

(** Is any result of [op] used? *)
let op_used g (op : Op.op) = List.exists (fun r -> users g r <> []) op.Op.results

(** Pure ops can be erased when unused. Control flow and async ops are
    conservatively impure. *)
let is_pure (op : Op.op) =
  match op.Op.opcode with
  | Op.Const_int _ | Op.Const_float _ | Op.Binop _ | Op.Unop _ | Op.Cmp _
  | Op.Select | Op.Cast | Op.Program_id _ | Op.Num_programs _ | Op.Splat
  | Op.Iota | Op.Broadcast | Op.Expand_dims _ | Op.Reshape | Op.Trans
  | Op.Reduce _ | Op.Dot | Op.Make_tensor_desc | Op.Local_alloc | Op.Local_load ->
    true
  | Op.Tma_load ->
    (* Loads are pure in the value sense (no observable side effect in
       this IR); erasing an unused load is safe and mirrors Triton. *)
    true
  | Op.Tma_store | Op.For | Op.Yield | Op.If | Op.Warp_group | Op.Aref_create _
  | Op.Aref_put | Op.Aref_get | Op.Aref_consumed | Op.Wgmma_issue
  | Op.Wgmma_wait _ ->
    false
