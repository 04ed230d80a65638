(** Static register-tile and SMEM footprint model.

    Mirrors {!Tawa_machine.Codegen.lower}'s allocation decisions over
    the IR without running it, so the result is comparable to the
    decode engine's measured high-water marks:

    - {b Registers}: codegen binds a fresh register to every tile
      result ([def_reg]) except results that alias shared memory (aref
      gets, staged allocs, scratch TMA loads, transposed SMEM views)
      or an existing accumulator (Dot/Wgmma results alias their [acc]
      operand; [For] results alias the iteration registers). An SMEM-
      bound value read by a CUDA-core op is pulled into a {e fresh}
      register at every use site ([tile_operand] emits an [Lds] per
      use), except WGMMA [a]/[b] operands, which read shared memory
      directly. The engine never retires tile registers, so the sum of
      these bindings is a sound upper bound on the measured resident
      tensor bytes per warp group.
    - {b SMEM}: aref rings ([depth] slots per payload tile) plus one
      buffer per [Local_alloc] and per non-deferred [Tma_load]
      (deferred = every user is an [Aref_put]; those write ring slots
      and allocate nothing). Top-level ops are re-lowered into every
      stream, so their scratch buffers replicate per warp group.

    The per-partition split follows codegen's [region_specs]: stream
    [i] is top-level ops plus warp-group region [i] (one consumer
    stream when the kernel is not warp-specialized). *)

open Tawa_ir
open Tawa_machine

type part = {
  index : int;  (** stream index, matching [Isa.program.streams] order *)
  role : Op.wg_role;
  coop : int;  (** warp groups cooperating on this stream *)
  tensor_bytes : int;  (** resident register-tile bytes (upper bound) *)
  scalar_regs : int;  (** 32-bit scalar + descriptor registers *)
}

type smem_item = {
  label : string;
  item_bytes : int;  (** one copy *)
  copies : int;  (** stream replication factor *)
}

type t = {
  parts : part list;
  smem_items : smem_item list;
  smem_bytes : int;  (** total static SMEM, all copies *)
}

let bytes_of v = Types.size_bytes (Value.ty v)
let is_tile v = Types.is_tensor (Value.ty v)

(* ---------------------- register-tile model ----------------------- *)

(* One accumulator per stream walk. [smem] is the set of values bound
   to SMEM views rather than registers. *)
type acc = {
  mutable tbytes : int;
  mutable sregs : int;
  smem : unit Value.Tbl.t;
}

let smem_bound a v = Value.Tbl.mem a.smem v
let bind_smem a v = Value.Tbl.replace a.smem v ()
let add_tile a v = a.tbytes <- a.tbytes + bytes_of v
let add_scalar a = a.sregs <- a.sregs + 1

(* [tile_operand]: an SMEM-bound tile read by a CUDA-core op costs a
   fresh register at this use site. *)
let pull a v = if smem_bound a v && is_tile v then a.tbytes <- a.tbytes + bytes_of v

let def a v =
  if is_tile v then add_tile a v
  else
    match Value.ty v with
    | Types.TScalar _ | Types.TPtr _ | Types.TTensorDesc _ -> add_scalar a
    | _ -> ()

let rec walk_op (graph : Graph.t) (a : acc) (op : Op.op) =
  match op.Op.opcode with
  | Op.Aref_create _ | Op.Warp_group -> ()
  | Op.Aref_get ->
    (* Results are views of the ring slot; no registers. *)
    List.iter (bind_smem a) op.Op.results
  | Op.Aref_put | Op.Aref_consumed -> ()
  | Op.Tma_load ->
    let deferred =
      match op.Op.results with
      | [ r ] -> (
        match Graph.users graph r with
        | [] -> false
        | us -> List.for_all (fun u -> u.Op.opcode = Op.Aref_put) us)
      | _ -> false
    in
    if not deferred then begin
      (* Scratch SMEM buffer + a monotonic phase counter register. *)
      add_scalar a;
      List.iter (bind_smem a) op.Op.results
    end
  | Op.Local_alloc ->
    List.iter (pull a) op.Op.operands;
    List.iter (bind_smem a) op.Op.results
  | Op.Local_load ->
    (* SMEM source: Lds into a fresh tile register. Register source:
       pure alias, no new binding. *)
    let from_smem = List.exists (smem_bound a) op.Op.operands in
    if from_smem then List.iter (def a) op.Op.results
  | Op.Trans ->
    (* SMEM views transpose for free (descriptor stride flip); the
       result remains SMEM-bound. Register tiles pay a fresh tile. *)
    let from_smem = List.exists (smem_bound a) op.Op.operands in
    if from_smem then List.iter (bind_smem a) op.Op.results
    else List.iter (def a) op.Op.results
  | Op.Dot | Op.Wgmma_issue ->
    (* a/b read SMEM directly (wgmma_src); the result aliases acc. *)
    ()
  | Op.Wgmma_wait _ | Op.Yield ->
    List.iter (pull a) op.Op.operands
  | Op.Tma_store ->
    List.iter (pull a) op.Op.operands
  | Op.For ->
    (* lb/ub/step/inits are read (SMEM inits are pulled); the induction
       variable and each tile iteration argument get fresh registers.
       Results alias the iteration registers. *)
    List.iter (pull a) op.Op.operands;
    (match op.Op.regions with
    | r :: _ ->
      let blk = Op.entry_block r in
      (match blk.Op.params with
      | iv :: iters ->
        ignore iv;
        add_scalar a;
        List.iter (def a) iters
      | [] -> ());
      List.iter (walk_op graph a) blk.Op.ops
    | [] -> ())
  | Op.If ->
    List.iter (pull a) op.Op.operands;
    List.iter (def a) op.Op.results;
    List.iter
      (fun r -> List.iter (walk_op graph a) (Op.entry_block r).Op.ops)
      op.Op.regions
  | _ ->
    (* CUDA-core tile/scalar ops: pull SMEM operands, fresh result. *)
    List.iter (pull a) op.Op.operands;
    List.iter (def a) op.Op.results

(* --------------------------- SMEM model --------------------------- *)

let smem_model (k : Kernel.t) (graph : Graph.t) ~(num_streams : int) :
    smem_item list =
  let items = ref [] in
  let add label bytes copies =
    if bytes > 0 then items := { label; item_bytes = bytes; copies } :: !items
  in
  let top = Hashtbl.create 64 in
  List.iter
    (fun (op : Op.op) ->
      match op.Op.opcode with
      | Op.Warp_group -> ()
      | _ ->
        Hashtbl.replace top op.Op.oid ();
        List.iter
          (Op.iter_region (fun o -> Hashtbl.replace top o.Op.oid ()))
          op.Op.regions)
    (Kernel.entry k).Op.ops;
  let copies_of op = if Hashtbl.mem top op.Op.oid then num_streams else 1 in
  Op.iter_region
    (fun op ->
      match op.Op.opcode with
      | Op.Aref_create depth ->
        let payload =
          match op.Op.results with
          | [ r ] -> (
            match Value.ty r with
            | Types.TAref { payload; _ } -> payload
            | _ -> [])
          | _ -> []
        in
        let slot = List.fold_left (fun s ty -> s + Types.size_bytes ty) 0 payload in
        add
          (Printf.sprintf "aref ring {id = %d}" op.Op.oid)
          (depth * slot) 1
      | Op.Local_alloc ->
        let bytes =
          match op.Op.operands with v :: _ -> bytes_of v | [] -> 0
        in
        add (Printf.sprintf "local_alloc {id = %d}" op.Op.oid) bytes (copies_of op)
      | Op.Tma_load ->
        let deferred =
          match op.Op.results with
          | [ r ] -> (
            match Graph.users graph r with
            | [] -> false
            | us -> List.for_all (fun u -> u.Op.opcode = Op.Aref_put) us)
          | _ -> false
        in
        if not deferred then
          let bytes =
            match op.Op.results with r :: _ -> bytes_of r | [] -> 0
          in
          add
            (Printf.sprintf "tma scratch {id = %d}" op.Op.oid)
            bytes (copies_of op)
      | _ -> ())
    k.Kernel.body;
  List.rev !items

(* ----------------------------- driver ----------------------------- *)

(** Warp-group roles in region order, mirroring codegen's
    [region_specs]. *)
let stream_roles (k : Kernel.t) : Op.wg_role list =
  match Kernel.find_warp_group k with
  | None -> [ Op.Consumer ]
  | Some wgop ->
    let roles =
      match Op.attr_string wgop "roles" with
      | Some s -> String.split_on_char ',' s |> List.filter_map Op.role_of_string
      | None -> []
    in
    List.mapi
      (fun i _ -> try List.nth roles i with _ -> Op.Consumer)
      wgop.Op.regions

let compute (k : Kernel.t) : t =
  let graph = Graph.build k.Kernel.body in
  let roles = stream_roles k in
  let num_streams = List.length roles in
  let coop = Option.value (Kernel.attr_int k "num_consumer_wgs") ~default:1 in
  let wg = Kernel.find_warp_group k in
  let top_ops =
    List.filter
      (fun (o : Op.op) ->
        match o.Op.opcode with Op.Aref_create _ | Op.Warp_group -> false | _ -> true)
      (Kernel.entry k).Op.ops
  in
  let parts =
    List.mapi
      (fun i role ->
        let a = { tbytes = 0; sregs = 0; smem = Value.Tbl.create 32 } in
        (* Kernel params preload registers 0..n-1. *)
        List.iter (def a) k.Kernel.params;
        List.iter (walk_op graph a) top_ops;
        (match wg with
        | Some wgop ->
          let r = List.nth wgop.Op.regions i in
          List.iter (walk_op graph a) (Op.entry_block r).Op.ops
        | None -> ());
        {
          index = i;
          role;
          coop = (if role = Op.Consumer then coop else 1);
          tensor_bytes = a.tbytes;
          scalar_regs = a.sregs;
        })
      roles
  in
  let smem_items = smem_model k graph ~num_streams in
  let smem_bytes =
    List.fold_left (fun s it -> s + (it.item_bytes * it.copies)) 0 smem_items
  in
  { parts; smem_items; smem_bytes }

(* ---------------------- liveness max pressure --------------------- *)

(** Max over each stream's CFG nodes of the live-in tile bytes, in
    {!stream_roles} order (top-level nodes count toward every stream):
    the informational "how much must be simultaneously alive" figure,
    as opposed to the resident model above (codegen never frees). No
    verdict reads it, so only the occupancy report pays for the
    liveness pass. *)
let max_live (k : Kernel.t) : int list =
  let cfg = Dataflow.Cfg.build k in
  let live = Dataflow.Liveness.run cfg in
  let by_id = Hashtbl.create 64 in
  Array.iter
    (fun n ->
      List.iter
        (fun v -> if is_tile v then Hashtbl.replace by_id (Value.id v) v)
        (n.Dataflow.Cfg.defs @ n.Dataflow.Cfg.uses))
    cfg.Dataflow.Cfg.nodes;
  let best = Hashtbl.create 4 in
  Array.iteri
    (fun i n ->
      let bytes =
        Dataflow.Int_set.fold
          (fun id acc ->
            match Hashtbl.find_opt by_id id with
            | Some v -> acc + bytes_of v
            | None -> acc)
          (Dataflow.Liveness.live_in live i)
          0
      in
      let p = n.Dataflow.Cfg.partition in
      let cur = Option.value (Hashtbl.find_opt best p) ~default:0 in
      if bytes > cur then Hashtbl.replace best p bytes)
    cfg.Dataflow.Cfg.nodes;
  let at p = Option.value (Hashtbl.find_opt best p) ~default:0 in
  let ws = Kernel.find_warp_group k <> None in
  List.mapi (fun i _ -> max (at (-1)) (if ws then at i else 0)) (stream_roles k)
