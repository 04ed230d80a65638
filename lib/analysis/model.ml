(** Shared protocol model for the arefcheck analyses.

    [build] walks a (warp-specialized) kernel once and summarizes every
    channel op as a {!site}: which warp-group partition it executes in,
    its program-order position, the innermost loop it belongs to, the
    guard it sits under, and its slot operand expressed as an affine
    offset of the loop's normalized iteration index.

    The partitioner always computes the slot as [it = (iv - lb) / step]
    (see {!Tawa_passes.Partition.emit_iter_index}); the fine pipeline
    re-times releases to [it - P] under an [it >= P] guard. Both shapes
    are recognized here, so the checks can reason about slot skew,
    release lag and guarded negative indices symbolically without
    executing the kernel. *)

open Tawa_ir

(** Slot operand as [it + c] of the site's innermost loop, when it can
    be proven; [Opaque] otherwise (e.g. the drain loop of the fine
    pipeline releases absolute indices through its own IV). *)
type slot_expr = Affine of int | Opaque

type site_kind = Put | Get | Consumed

type site = {
  s_op : Op.op;
  kind : site_kind;
  partition : int;  (** region index in the warp_group; -1 = outside *)
  seq : int;        (** pre-order position among this partition's channel ops *)
  loop_oid : int option;  (** innermost enclosing [scf.for], if any *)
  slot : slot_expr;
  guard_min_it : int;     (** proven [it >= guard_min_it] at this site *)
  guard_unknown : bool;   (** sits under a guard we could not analyze *)
}

type channel = {
  create : Op.op;
  cvalue : Value.t;
  depth : int;
  multicast : int;  (** declared consumer partitions ("multicast" attr, default 1) *)
  mutable puts : site list;       (* program order *)
  mutable gets : site list;
  mutable consumeds : site list;
}

module Int_set = Set.Make (Int)

type t = {
  kernel : Kernel.t;
  wg : Op.op option;
  num_partitions : int;
  channels : channel list;  (* aref_create program order *)
  sites_by_partition : site list array;  (* pre-order; only partitions >= 0 *)
  main_loops : Int_set.t;  (* loops carrying a put or a get of some channel *)
}

let kind_to_string = function
  | Put -> "aref_put"
  | Get -> "aref_get"
  | Consumed -> "aref_consumed"

(** Is this site inside a loop that carries puts/gets (the pipelined
    main loop), as opposed to e.g. the drain loop of the fine pipeline? *)
let in_main_loop (m : t) (s : site) =
  match s.loop_oid with Some o -> Int_set.mem o m.main_loops | None -> false

let affine_offsets sites =
  List.filter_map
    (fun s -> match s.slot with Affine c -> Some (s, c) | Opaque -> None)
    sites

(** Distinct partition indices of [sites], ascending. *)
let partitions_of sites =
  List.sort_uniq compare (List.map (fun s -> s.partition) sites)

type loop_ctx = { iv : Value.t; lb : Value.t; step : Value.t; l_oid : int }

let build (k : Kernel.t) : t =
  let def_of = Graph.def (Graph.build k.Kernel.body) in
  let const_of v =
    match def_of v with Some { Op.opcode = Op.Const_int i; _ } -> Some i | _ -> None
  in
  (* [v] as [it + c] where [it = (iv - lb) / step] of [ctx]. *)
  let rec affine (ctx : loop_ctx option) v : slot_expr =
    match ctx with
    | None -> Opaque
    | Some { iv; lb; step; _ } -> (
      match def_of v with
      | Some { Op.opcode = Op.Binop Op.Div; operands = [ x; s ]; _ }
        when Value.equal s step -> (
        match def_of x with
        | Some { Op.opcode = Op.Binop Op.Sub; operands = [ i; l ]; _ }
          when Value.equal i iv && Value.equal l lb ->
          Affine 0
        | _ -> Opaque)
      | Some { Op.opcode = Op.Binop Op.Sub; operands = [ a; b ]; _ } -> (
        match (affine ctx a, const_of b) with
        | Affine c, Some n -> Affine (c - n)
        | _ -> Opaque)
      | Some { Op.opcode = Op.Binop Op.Add; operands = [ a; b ]; _ } -> (
        match (affine ctx a, const_of b) with
        | Affine c, Some n -> Affine (c + n)
        | _ -> (
          match (const_of a, affine ctx b) with
          | Some n, Affine c -> Affine (c + n)
          | _ -> Opaque))
      | _ -> Opaque)
  in
  (* Channels, in program order. *)
  let channels = ref [] in
  let by_value : channel Value.Tbl.t = Value.Tbl.create 8 in
  Op.iter_region
    (fun op ->
      match op.Op.opcode with
      | Op.Aref_create depth ->
        let cvalue = List.hd op.Op.results in
        let multicast = Option.value (Op.attr_int op "multicast") ~default:1 in
        let ch =
          { create = op; cvalue; depth; multicast; puts = []; gets = []; consumeds = [] }
        in
        channels := ch :: !channels;
        Value.Tbl.replace by_value cvalue ch
      | _ -> ())
    k.Kernel.body;
  let wg = Kernel.find_warp_group k in
  let nparts = match wg with Some w -> List.length w.Op.regions | None -> 0 in
  let part_sites = Array.make (max nparts 1) [] in
  let seqs = Array.make (max nparts 1 + 1) 0 in
  let seq_of partition =
    let i = partition + 1 in
    let s = seqs.(i) in
    seqs.(i) <- s + 1;
    s
  in
  let record ~partition ~ctx ~gmin ~gunk (op : Op.op) kind =
    match op.Op.operands with
    | aref :: slotv :: _ -> (
      match Value.Tbl.find_opt by_value aref with
      | None -> () (* not an aref_create result; the verifier's problem *)
      | Some ch ->
        let site =
          {
            s_op = op;
            kind;
            partition;
            seq = seq_of partition;
            loop_oid = Option.map (fun (c : loop_ctx) -> c.l_oid) ctx;
            slot = affine ctx slotv;
            guard_min_it = gmin;
            guard_unknown = gunk;
          }
        in
        (match kind with
        | Put -> ch.puts <- ch.puts @ [ site ]
        | Get -> ch.gets <- ch.gets @ [ site ]
        | Consumed -> ch.consumeds <- ch.consumeds @ [ site ]);
        if partition >= 0 && partition < nparts then
          part_sites.(partition) <- part_sites.(partition) @ [ site ])
    | _ -> ()
  in
  (* [it >= m] facts proven by an scf.if's then-branch, relative to the
     enclosing loop's normalized index. *)
  let guard_fact ctx cond =
    match def_of cond with
    | Some { Op.opcode = Op.Cmp Op.Ge; operands = [ a; b ]; _ } -> (
      match (affine ctx a, const_of b) with
      | Affine c, Some m -> Some (m - c)
      | _ -> None)
    | _ -> None
  in
  let rec go_block ~partition ctx gmin gunk (b : Op.block) =
    List.iter
      (fun (op : Op.op) ->
        (match op.Op.opcode with
        | Op.Aref_put -> record ~partition ~ctx ~gmin ~gunk op Put
        | Op.Aref_get -> record ~partition ~ctx ~gmin ~gunk op Get
        | Op.Aref_consumed -> record ~partition ~ctx ~gmin ~gunk op Consumed
        | _ -> ());
        match op.Op.opcode with
        | Op.Warp_group ->
          List.iteri
            (fun i (r : Op.region) ->
              List.iter (go_block ~partition:i None 0 false) r.Op.blocks)
            op.Op.regions
        | Op.For ->
          (* A new loop's [it] restarts; guards proven about an outer
             iteration index do not carry inside. *)
          let ctx' =
            match op.Op.regions with
            | r :: _ -> (
              let blk = Op.entry_block r in
              match (op.Op.operands, blk.Op.params) with
              | lb :: _ub :: step :: _, iv :: _ ->
                Some { iv; lb; step; l_oid = op.Op.oid }
              | _ -> None)
            | [] -> None
          in
          List.iter
            (fun (r : Op.region) -> List.iter (go_block ~partition ctx' 0 gunk) r.Op.blocks)
            op.Op.regions
        | Op.If ->
          let fact =
            match op.Op.operands with c :: _ -> guard_fact ctx c | [] -> None
          in
          List.iteri
            (fun i (r : Op.region) ->
              let gmin', gunk' =
                if i = 0 then
                  match fact with
                  | Some m -> (max gmin m, gunk)
                  | None -> (gmin, true)
                else (gmin, true) (* else-branch: no usable fact *)
              in
              List.iter (go_block ~partition ctx gmin' gunk') r.Op.blocks)
            op.Op.regions
        | _ ->
          List.iter
            (fun (r : Op.region) -> List.iter (go_block ~partition ctx gmin gunk) r.Op.blocks)
            op.Op.regions)
      b.Op.ops
  in
  List.iter (go_block ~partition:(-1) None 0 false) k.Kernel.body.Op.blocks;
  let channels = List.rev !channels in
  let main_loops =
    List.fold_left
      (fun acc ch ->
        List.fold_left
          (fun acc s ->
            match s.loop_oid with Some o -> Int_set.add o acc | None -> acc)
          acc (ch.puts @ ch.gets))
      Int_set.empty channels
  in
  { kernel = k; wg; num_partitions = nparts; channels;
    sites_by_partition = (if nparts = 0 then [||] else Array.sub part_sites 0 nparts);
    main_loops }
