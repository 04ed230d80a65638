(** Deadlock check: ring capacity and startup progress.

    Two complementary analyses over the {!Model.t}:

    - {b capacity}: along the pipelined main loop, the number of slots a
      consumer holds before releasing ([get offset - consumed offset])
      must fit in the ring; a lag of P needs depth D >= P or the
      producer blocks forever once the pipeline fills.

    - {b startup}: run one unguarded pass over each partition's channel
      ops through the aref model itself ({!Tawa_aref.Schedule.run} over
      {!Tawa_aref.Ring}s, with the semantics of Fig. 4): each partition
      is an agent, each channel one ring of its depth (a multicast ring
      when several partitions read it), and a site's iteration is its
      ordinal on its channel within its partition. If the agents cannot
      all finish their first iteration, the partition/channel wait graph
      has a cycle — e.g. two rings read in opposite orders by two
      partitions — and the kernel is rejected. A transition Fig. 4
      forbids, such as a release before its get, is reported with the
      model's message. *)

open Model

let name = "deadlock"

let err ?op ?values fmt = Diagnostic.error ~check:name ?op ?values fmt

let chan_name (ch : channel) = Tawa_ir.Value.name ch.cvalue

(* ------------------------------------------------------------------ *)
(* Capacity along the main loop                                        *)
(* ------------------------------------------------------------------ *)

let check_capacity (m : t) (ch : channel) : Diagnostic.t list =
  let ds = ref [] in
  let add d = ds := d :: !ds in
  if ch.depth < 1 then
    add (err ~op:ch.create ~values:[ ch.cvalue ]
           "channel %s has ring depth %d; at least one slot is required"
           (chan_name ch) ch.depth);
  let main_affine sites =
    affine_offsets (List.filter (fun s -> in_main_loop m s) sites)
  in
  (* Per consumer partition: steady-state slots held = get - consumed. *)
  List.iter
    (fun (c, cc) ->
      match
        List.find_opt (fun (g, _) -> g.partition = c.partition) (main_affine ch.gets)
      with
      | None -> ()
      | Some (_, gc) ->
        let lag = gc - cc in
        if lag > ch.depth then
          add
            (err ~op:c.s_op ~values:[ ch.cvalue ]
               "channel %s: partition %d holds %d slots in flight (get at \
                it%+d, release at it%+d) but the ring has only %d; the \
                producer can never fill slot it%+d — need depth >= %d"
               (chan_name ch) c.partition lag gc cc ch.depth gc lag))
    (main_affine ch.consumeds);
  (* More puts per iteration than slots can never drain. *)
  let per_loop = Hashtbl.create 4 in
  List.iter
    (fun (p, _) ->
      let key = (p.partition, p.loop_oid) in
      Hashtbl.replace per_loop key (1 + Option.value (Hashtbl.find_opt per_loop key) ~default:0))
    (main_affine ch.puts);
  Hashtbl.iter
    (fun _ n ->
      if n > ch.depth then
        add
          (err ~op:ch.create ~values:[ ch.cvalue ]
             "channel %s: %d puts per loop iteration exceed ring depth %d"
             (chan_name ch) n ch.depth))
    per_loop;
  List.rev !ds

(* ------------------------------------------------------------------ *)
(* Startup run                                                         *)
(* ------------------------------------------------------------------ *)

module Ring = Tawa_aref.Ring
module Schedule = Tawa_aref.Schedule

let check_startup (m : t) : Diagnostic.t list =
  (* Sites that run unconditionally on the first pass. *)
  let first_pass s = s.guard_min_it <= 0 && not s.guard_unknown in
  let in_wg p = p >= 0 && p < m.num_partitions in
  let index = Tawa_ir.Value.Tbl.create 8 in
  List.iteri (fun i ch -> Tawa_ir.Value.Tbl.replace index ch.cvalue i) m.channels;
  let ring_of (s : site) = Tawa_ir.Value.Tbl.find index (List.hd s.s_op.Tawa_ir.Op.operands) in
  (* A channel some put of which the first pass may skip (guarded away,
     unanalyzable or outside the warp group) is externally fed: its
     reads are left out rather than reported as a spurious deadlock. *)
  let fed =
    Array.of_list
      (List.map
         (fun ch -> List.for_all (fun p -> first_pass p && in_wg p.partition) ch.puts)
         m.channels)
  in
  let rings =
    Array.of_list
      (List.map
         (fun ch ->
           let depth = max 1 ch.depth in
           match List.filter in_wg (partitions_of (ch.gets @ ch.consumeds)) with
           | _ :: _ :: _ as readers ->
             Schedule.Multicast (Ring.Multicast.create ~depth ~consumers:(List.length readers))
           | _ -> Schedule.Ring (Ring.create ~depth))
         m.channels)
  in
  let progs =
    Array.map
      (fun sites ->
        Array.of_list
          (List.filter (fun s -> first_pass s && (s.kind = Put || fed.(ring_of s))) sites))
      m.sites_by_partition
  in
  (* A site's iteration is its ordinal among its partition's sites of
     the same kind on the same channel. *)
  let agent p sites =
    let seen = Hashtbl.create 8 in
    let action (s : site) =
      let ring = ring_of s in
      let iter = Option.value (Hashtbl.find_opt seen (ring, s.kind)) ~default:0 in
      Hashtbl.replace seen (ring, s.kind) (iter + 1);
      match s.kind with
      | Put -> Schedule.Put { ring; iter; value = 0 }
      | Get -> Schedule.Get { ring; iter }
      | Consumed -> Schedule.Consumed { ring; iter }
    in
    { Schedule.name = string_of_int p; actions = Array.map action sites; pc = 0 }
  in
  let agents = Array.mapi agent progs in
  (* Where agent [name] stopped: its site, and the site in words. *)
  let stopped what name =
    let p = int_of_string name in
    let s = progs.(p).(agents.(p).Schedule.pc) in
    ( s,
      Printf.sprintf "partition %d %s %s on channel %s" p what (kind_to_string s.kind)
        (Tawa_ir.Value.name (List.hd s.s_op.Tawa_ir.Op.operands)) )
  in
  match Schedule.run ~rings ~choose:(fun r -> r.(0)) (Array.to_list agents) with
  | Schedule.Completed _ -> []
  | Schedule.Error (name, msg) ->
    let s, where = stopped "breaks the aref protocol at" name in
    [ err ~op:s.s_op "%s: %s" where msg ]
  | Schedule.Deadlock names ->
    let stuck = List.map (stopped "blocks at") names in
    [ err ~op:(fst (List.hd stuck)).s_op
        "startup deadlock: no interleaving lets every partition complete \
         its first iteration; the partition/channel wait graph has a cycle \
         (%s)"
        (String.concat "; " (List.map snd stuck)) ]

let run (m : t) : Diagnostic.t list =
  List.concat_map (check_capacity m) m.channels @ check_startup m
