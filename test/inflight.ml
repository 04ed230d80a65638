(* A scan for reads of an MMA result in flight, written from the
   hardware rule rather than from the passes.

   A [wgmma_issue] commits one group, and WGMMA writes its accumulator
   only when that group retires; [wgmma_wait {pendings = n}] retires
   every group but the newest [n]. So a result (or the loop-carried
   value a [yield] makes of it) may be read only once a wait has
   retired its group. Two reads are exempt: a [yield], which only
   renames the value, and the accumulator operand of a later
   [wgmma_issue], since MMAs on one accumulator retire in issue
   order. Loops are scanned through their back edge: what is pending
   at the [yield] is pending, under the carried names, at the top of
   the next iteration. *)

open Tawa_ir

(* Pending groups, oldest first; a group holds the names of one
   issue's results. *)
type pending = Value.t list list

let is_pending (p : pending) v = List.exists (List.exists (Value.equal v)) p

(* Retire all but the newest [n] groups. *)
let retire n (p : pending) =
  let extra = List.length p - n in
  List.filteri (fun i _ -> i >= extra) p

(* Add to every group the [targets] whose [sources] it holds: the
   names a yield, a loop entry or a loop exit gives its values. *)
let rename (p : pending) sources targets =
  List.map
    (fun g ->
      g
      @ List.concat
          (List.map2
             (fun s t -> if List.exists (Value.equal s) g then [ t ] else [])
             sources targets))
    p

let yield_of (blk : Op.block) =
  match List.rev blk.Op.ops with
  | ({ Op.opcode = Op.Yield; _ } as y) :: _ -> y.Op.operands
  | _ -> []

(** The ops of [k] that read a pending MMA result, each once, in
    program order. *)
let reads_in_flight (k : Kernel.t) : Op.op list =
  let flagged = Hashtbl.create 8 in
  let order = ref [] in
  let flag (op : Op.op) =
    if not (Hashtbl.mem flagged op.Op.oid) then begin
      Hashtbl.add flagged op.Op.oid ();
      order := op :: !order
    end
  in
  let check p (op : Op.op) vs = if List.exists (is_pending p) vs then flag op in
  let rec block p (blk : Op.block) = List.fold_left step p blk.Op.ops
  and step p (op : Op.op) =
    match (op.Op.opcode, op.Op.operands) with
    | Op.Wgmma_issue, a :: b :: _ ->
      check p op [ a; b ];
      p @ [ op.Op.results ]
    | Op.Wgmma_wait n, _ -> retire n p
    | Op.Yield, _ -> p
    | Op.For, _ :: _ :: _ :: inits ->
      check p op (List.filteri (fun i _ -> i < 3) op.Op.operands);
      let body = Op.entry_block (List.hd op.Op.regions) in
      let iters = List.tl body.Op.params in
      (* Three trips: the first from the loop entry, two more through
         the back edge, enough for every wait this IR places to reach
         its steady state. *)
      let rec trips n p =
        let out = block p body in
        if n = 1 then out else trips (n - 1) (rename out (yield_of body) iters)
      in
      let out = trips 3 (rename p inits iters) in
      rename out (yield_of body) op.Op.results
    | Op.Warp_group, _ ->
      check p op op.Op.operands;
      List.iter (fun r -> ignore (block [] (Op.entry_block r))) op.Op.regions;
      p
    | _ ->
      check p op op.Op.operands;
      (* A branch may not run, so nothing it waits for counts as
         retired; what it issues, it may leave pending. *)
      List.fold_left
        (fun acc (r : Op.region) ->
          let blk = Op.entry_block r in
          let out = block p blk in
          let issued = List.filter (fun g -> not (List.memq g p)) out in
          rename (acc @ issued) (yield_of blk) op.Op.results)
        p op.Op.regions
  in
  List.iter (fun (blk : Op.block) -> ignore (block [] blk)) k.Kernel.body.Op.blocks;
  List.rev !order
