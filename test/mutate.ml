(** Protocol-breaking mutations for the arefcheck self-test harness.

    Each mutation clones a known-good warp-specialized kernel and breaks
    the aref protocol in one specific way; the tests assert that
    arefcheck flags every applicable mutation with the expected check.
    [apply] returns [None] when the kernel lacks the shape the mutation
    targets (e.g. [unguard-release] needs the fine pipeline's guarded
    releases), so one mutation list covers structurally different
    corpora. *)

open Tawa_ir
open Tawa_analysis

type t = {
  name : string;
  expect : string;
      (** check expected to flag the mutant; ["verifier"] for the IR
          verifier *)
  apply : Kernel.t -> Kernel.t option;
}

(* ------------------------------ helpers --------------------------- *)

let first_op pred (k : Kernel.t) =
  Op.fold_region
    (fun acc op -> match acc with Some _ -> acc | None -> if pred op then Some op else acc)
    None k.Kernel.body

let first_aref k =
  Option.map
    (fun op -> List.hd op.Op.results)
    (first_op (fun op -> match op.Op.opcode with Op.Aref_create _ -> true | _ -> false) k)

let targets aref (op : Op.op) =
  match op.Op.operands with a :: _ -> Value.equal a aref | [] -> false

(* All blocks of the kernel, recursively. *)
let all_blocks (k : Kernel.t) =
  let acc = ref [] in
  let rec go_region (r : Op.region) =
    List.iter
      (fun (b : Op.block) ->
        acc := b :: !acc;
        List.iter (fun (op : Op.op) -> List.iter go_region op.Op.regions) b.Op.ops)
      r.Op.blocks
  in
  go_region k.Kernel.body;
  List.rev !acc

(* Remove every op matching [pred] anywhere in the kernel, in place;
   returns how many were removed. *)
let remove_ops pred k =
  let n = ref 0 in
  List.iter
    (fun (b : Op.block) ->
      let keep, drop = List.partition (fun op -> not (pred op)) b.Op.ops in
      n := !n + List.length drop;
      b.Op.ops <- keep)
    (all_blocks k);
  !n

(* Block directly containing [op], if any. *)
let parent_block (op : Op.op) k =
  List.find_opt (fun (b : Op.block) -> List.memq op b.Op.ops) (all_blocks k)

(* Splice [news] into [op]'s block right after (or before) it. *)
let insert ~after op news k =
  match parent_block op k with
  | None -> false
  | Some b ->
    b.Op.ops <-
      List.concat_map
        (fun o ->
          if o == op then if after then o :: news else news @ [ o ] else [ o ])
        b.Op.ops;
    true

let is_opcode oc (op : Op.op) = op.Op.opcode = oc

let wg_regions k =
  match Kernel.find_warp_group k with
  | Some wg when List.length wg.Op.regions >= 2 -> Some wg.Op.regions
  | _ -> None

let region_first pred (r : Op.region) =
  Op.fold_region
    (fun acc op -> match acc with Some _ -> acc | None -> if pred op then Some op else acc)
    None r

(* ----------------------------- mutations -------------------------- *)

let drop_consumed =
  { name = "drop-consumed";
    expect = Check_channel.name;
    apply =
      (fun k ->
        let k = Kernel.clone k in
        match first_aref k with
        | None -> None
        | Some a ->
          if remove_ops (fun op -> is_opcode Op.Aref_consumed op && targets a op) k > 0
          then Some k
          else None) }

let drop_put =
  { name = "drop-put";
    expect = Check_channel.name;
    apply =
      (fun k ->
        let k = Kernel.clone k in
        match first_aref k with
        | None -> None
        | Some a ->
          if remove_ops (fun op -> is_opcode Op.Aref_put op && targets a op) k > 0
          then Some k
          else None) }

let double_get =
  { name = "double-get";
    expect = Check_channel.name;
    apply =
      (fun k ->
        let k = Kernel.clone k in
        match first_op (is_opcode Op.Aref_get) k with
        | None -> None
        | Some g ->
          let dup =
            Op.mk ~operands:g.Op.operands
              ~results:(List.map (fun r -> Value.fresh ~hint:"dup" (Value.ty r)) g.Op.results)
              Op.Aref_get
          in
          if insert ~after:true g [ dup ] k then Some k else None) }

(* Move a consumed of the same (aref, slot) in front of its get: the
   consumer releases the slot it is about to read. Applies to plainly
   partitioned kernels, where get and consumed share the slot value. *)
let swap_get_consumed =
  { name = "swap-get-consumed";
    expect = Check_channel.name;
    apply =
      (fun k ->
        let k = Kernel.clone k in
        let found = ref false in
        List.iter
          (fun (b : Op.block) ->
            if not !found then
              let arr = Array.of_list b.Op.ops in
              let n = Array.length arr in
              let gi = ref (-1) and ci = ref (-1) in
              for i = 0 to n - 1 do
                match arr.(i).Op.opcode with
                | Op.Aref_get when !gi < 0 -> gi := i
                | Op.Aref_consumed when !gi >= 0 && !ci < 0 -> (
                  match (arr.(!gi).Op.operands, arr.(i).Op.operands) with
                  | a1 :: s1 :: _, a2 :: s2 :: _
                    when Value.equal a1 a2 && Value.equal s1 s2 ->
                    ci := i
                  | _ -> ())
                | _ -> ()
              done;
              if !gi >= 0 && !ci > !gi then begin
                found := true;
                let c = arr.(!ci) in
                b.Op.ops <-
                  List.concat_map
                    (fun o ->
                      if o == c then []
                      else if o == arr.(!gi) then [ c; o ]
                      else [ o ])
                    b.Op.ops
              end)
          (all_blocks k);
        if !found then Some k else None) }

(* Shrink every ring below the software-pipeline depth P: the consumer
   then holds P slots in flight in a ring of P-1. Applies only to
   fine-pipelined kernels (attr mma_depth >= 2). *)
let shrink_depth =
  { name = "shrink-depth";
    expect = Check_deadlock.name;
    apply =
      (fun k ->
        match Kernel.attr_int k "mma_depth" with
        | Some p when p >= 2 ->
          let k = Kernel.clone k in
          let d' = p - 1 in
          let changed = ref false in
          List.iter
            (fun (b : Op.block) ->
              b.Op.ops <-
                List.map
                  (fun (op : Op.op) ->
                    match op.Op.opcode with
                    | Op.Aref_create _ ->
                      let old = List.hd op.Op.results in
                      let payload =
                        match Value.ty old with
                        | Tawa_ir.Types.TAref { payload; _ } -> payload
                        | _ -> []
                      in
                      let fresh =
                        Value.fresh ~hint:(Value.hint old) (Tawa_ir.Types.aref payload d')
                      in
                      Op.substitute_uses
                        (fun v -> if Value.equal v old then fresh else v)
                        k.Kernel.body;
                      changed := true;
                      Op.mk ~attrs:op.Op.attrs ~results:[ fresh ] (Op.Aref_create d')
                    | _ -> op)
                  b.Op.ops)
            (all_blocks k);
          if !changed then Some k else None
        | _ -> None) }

(* Shift the consumer's slot index by one: it reads a slot the producer
   fills only next iteration. *)
let stray_slot =
  { name = "stray-slot";
    expect = Check_channel.name;
    apply =
      (fun k ->
        let k = Kernel.clone k in
        match first_op (is_opcode Op.Aref_get) k with
        | None -> None
        | Some g -> (
          match g.Op.operands with
          | aref :: slot :: rest ->
            let one = Value.fresh ~hint:"one" Tawa_ir.Types.i32 in
            let c1 = Op.mk ~results:[ one ] (Op.Const_int 1) in
            let shifted = Value.fresh ~hint:"stray" Tawa_ir.Types.i32 in
            let add = Op.mk ~operands:[ slot; one ] ~results:[ shifted ] (Op.Binop Op.Add) in
            if insert ~after:false g [ c1; add ] k then begin
              g.Op.operands <- (aref :: shifted :: rest);
              Some k
            end
            else None
          | _ -> None)) }

(* Strip the [it >= P] guard from a pipelined release: the consumed then
   addresses slot it-P in iterations where that is negative. *)
let unguard_release =
  { name = "unguard-release";
    expect = Check_channel.name;
    apply =
      (fun k ->
        let k = Kernel.clone k in
        let guarded_if (op : Op.op) =
          op.Op.opcode = Op.If
          && (match op.Op.regions with
             | then_r :: _ ->
               Op.fold_region
                 (fun acc o -> acc || o.Op.opcode = Op.Aref_consumed)
                 false then_r
             | [] -> false)
        in
        match first_op guarded_if k with
        | None -> None
        | Some iff ->
          let inlined =
            List.concat_map
              (fun (b : Op.block) ->
                List.filter (fun (o : Op.op) -> o.Op.opcode <> Op.Yield) b.Op.ops)
              (List.hd iff.Op.regions).Op.blocks
          in
          if insert ~after:false iff inlined k then begin
            ignore (remove_ops (fun o -> o == iff) k);
            Some k
          end
          else None) }

(* A second producer: the consumer partition re-puts the slot it just
   read, violating single-producer discipline. *)
let second_producer =
  { name = "second-producer";
    expect = Check_channel.name;
    apply =
      (fun k ->
        let k = Kernel.clone k in
        match wg_regions k with
        | None -> None
        | Some regions -> (
          let consumer = List.hd (List.rev regions) in
          match region_first (is_opcode Op.Aref_get) consumer with
          | None -> None
          | Some g -> (
            match g.Op.operands with
            | aref :: slot :: _ ->
              let put =
                Op.mk ~operands:((aref :: slot :: g.Op.results)) Op.Aref_put
              in
              if insert ~after:true g [ put ] k then Some k else None
            | _ -> None))) }

(* Drop the consumer's gets but keep its releases: consumed without a
   preceding get is a direct protocol violation. *)
let get_without_put =
  { name = "drop-get";
    expect = Check_channel.name;
    apply =
      (fun k ->
        let k = Kernel.clone k in
        match first_aref k with
        | None -> None
        | Some a ->
          if remove_ops (fun op -> is_opcode Op.Aref_get op && targets a op) k > 0
          then Some k
          else None) }

let all =
  [ drop_consumed; drop_put; get_without_put; double_get; swap_get_consumed;
    shrink_depth; stray_slot; unguard_release; second_producer ]

(* ----------------------- statcheck mutations ----------------------- *)

(* These break performance invariants rather than the aref protocol;
   the statcheck harness asserts each is flagged by the named lint
   (see {!Statcheck.check_kernel}) on GEMM and attention bases. *)

(* Stage a tile into SMEM that no op ever reads. *)
let inject_dead_store =
  { name = "inject-dead-store";
    expect = "dead-store";
    apply =
      (fun k ->
        let k = Kernel.clone k in
        match
          first_op
            (fun op ->
              List.exists (fun r -> Types.is_tensor (Value.ty r)) op.Op.results)
            k
        with
        | None -> None
        | Some def_op ->
          let tile =
            List.find (fun r -> Types.is_tensor (Value.ty r)) def_op.Op.results
          in
          let shape, dtype =
            match Value.ty tile with
            | Types.TTensor { shape; dtype } -> (shape, dtype)
            | _ -> assert false
          in
          let dead =
            Op.mk Op.Local_alloc ~operands:[ tile ]
              ~results:[ Value.fresh ~hint:"dead" (Types.memdesc shape dtype) ]
          in
          if insert ~after:true def_op [ dead ] k then Some k else None) }

(* Claim a deeper MMA pipeline than the releases are actually re-timed
   for: depth the kernel pays registers for and cannot use. *)
let inflate_depth =
  { name = "inflate-depth";
    expect = "pipeline-depth";
    apply =
      (fun k ->
        if first_op (is_opcode Op.Aref_get) k = None then None
        else begin
          let k = Kernel.clone k in
          let p = Option.value (Kernel.attr_int k "mma_depth") ~default:2 in
          Kernel.set_attr k "mma_depth" (Op.Attr_int (p + 6));
          Some k
        end) }

(* Blow one ring past the SM's SMEM budget: the kernel can no longer be
   resident, which the static occupancy verdict must report. *)
let oversize_smem =
  { name = "oversize-smem";
    expect = "occupancy";
    apply =
      (fun k ->
        let k = Kernel.clone k in
        let huge = 4096 in
        let changed = ref false in
        List.iter
          (fun (b : Op.block) ->
            b.Op.ops <-
              List.map
                (fun (op : Op.op) ->
                  match op.Op.opcode with
                  | Op.Aref_create _ when not !changed ->
                    let old = List.hd op.Op.results in
                    let payload =
                      match Value.ty old with
                      | Types.TAref { payload; _ } -> payload
                      | _ -> []
                    in
                    let fresh =
                      Value.fresh ~hint:(Value.hint old) (Types.aref payload huge)
                    in
                    Op.substitute_uses
                      (fun v -> if Value.equal v old then fresh else v)
                      k.Kernel.body;
                    changed := true;
                    Op.mk ~attrs:op.Op.attrs ~results:[ fresh ] (Op.Aref_create huge)
                  | _ -> op)
                b.Op.ops)
          (all_blocks k);
        if !changed then Some k else None) }

(** Statcheck-lint mutations, kept separate from {!all}: their expected
    checks live in {!Statcheck.check_kernel}, not {!Arefcheck}. *)
let statcheck_all = [ inject_dead_store; inflate_depth; oversize_smem ]

(* ------------- mutations the verifier and arefcheck decide ------------ *)

(* Remove a tile/constant seed whose result is in use: its consumers
   (typically a loop's init) read a value no op defines any more, which
   the IR verifier's def-before-use rule rejects. *)
let drop_init =
  { name = "drop-init";
    expect = "verifier";
    apply =
      (fun k ->
        let k = Kernel.clone k in
        let g = Graph.build k.Kernel.body in
        let is_seed (op : Op.op) =
          match op.Op.opcode with
          | Op.Splat | Op.Iota | Op.Const_float _ -> op.Op.results <> []
          | _ -> false
        in
        match first_op (fun op -> is_seed op && Graph.op_used g op) k with
        | None -> None
        | Some seed ->
          if remove_ops (fun o -> o == seed) k > 0 then Some k else None) }

(* Make the consumer address a slot through a value computed in the
   producer partition: a cross-warp-group register leak. A warp-group
   region's definitions are out of scope in its siblings, so the IR
   verifier rejects the read. *)
let leak_value =
  { name = "leak-value";
    expect = "verifier";
    apply =
      (fun k ->
        let k = Kernel.clone k in
        match wg_regions k with
        | None -> None
        | Some regions -> (
          let producer = List.hd regions and consumer = List.hd (List.rev regions) in
          match
            ( region_first (is_opcode Op.Aref_put) producer,
              region_first (is_opcode Op.Aref_consumed) consumer )
          with
          | Some put, Some cons -> (
            match (put.Op.operands, cons.Op.operands) with
            | _ :: leaked :: _, aref :: _ :: rest ->
              cons.Op.operands <- (aref :: leaked :: rest);
              Some k
            | _ -> None)
          | _ -> None)) }

(* A channel nobody puts to or gets from: its slots and barriers are
   allocated for nothing. Arefcheck warns (it is waste, not a protocol
   break), so this one stays out of {!all}, whose mutants must each
   draw an error. *)
let orphan_slot =
  { name = "orphan-slot";
    expect = Check_channel.name;
    apply =
      (fun k ->
        let k = Kernel.clone k in
        match
          first_op
            (fun op ->
              match op.Op.opcode with Op.Aref_create _ -> true | _ -> false)
            k
        with
        | None -> None
        | Some cr ->
          let payload =
            match Value.ty (List.hd cr.Op.results) with
            | Types.TAref { payload; _ } -> payload
            | _ -> []
          in
          let orphan =
            Op.mk (Op.Aref_create 2)
              ~results:[ Value.fresh ~hint:"orphan" (Types.aref payload 2) ]
          in
          if insert ~after:true cr [ orphan ] k then Some k else None) }

