(** D-deep aref rings (§III-B: "multiple aref instances can be grouped
    into a cyclic buffer of depth D").

    A ring is an array of D independent one-slot arefs. Producers write
    iteration [k] into slot [k mod D]; consumers read and release the
    same slot. Each slot's value carries the iteration that wrote it,
    and a get or release of iteration [k] acts only while the slot
    holds iteration [k]: a get that finds an earlier iteration waits,
    as a consumer's wait on that slot's [full] barrier waits for the
    phase of iteration [k]. The ring therefore behaves as a bounded FIFO
    of capacity D. *)

type 'a t = (int * 'a) Semantics.t array

let create ~depth =
  if depth <= 0 then invalid_arg "Ring.create: depth must be positive";
  Array.init depth (fun _ -> Semantics.create ())

let slot_of_iter r k =
  if k < 0 then invalid_arg "Ring.slot_of_iter: negative iteration";
  k mod Array.length r

let put r ~iter v = Semantics.put r.(slot_of_iter r iter) (iter, v)

let get r ~iter =
  let s = r.(slot_of_iter r iter) in
  match s.Semantics.state with
  | Semantics.Full (k, _) when k <> iter -> Semantics.Blocked
  | _ -> (
    match Semantics.get s with
    | Semantics.Ok (_, v) -> Semantics.Ok v
    | Semantics.Blocked -> Semantics.Blocked)

let consumed r ~iter =
  let s = r.(slot_of_iter r iter) in
  match s.Semantics.state with
  | Semantics.Borrowed (k, _) when k <> iter ->
    raise (Semantics.Protocol_error "consumed of an iteration its slot does not hold")
  | _ -> Semantics.consumed s

(** Multicast ring (paper §VI, future work): one producer, [consumers]
    independent readers. A slot becomes reusable only after every
    consumer has released it; each consumer may read the published value
    exactly once per iteration, and a get of a later iteration waits
    until the slot holds it. *)
module Multicast = struct
  type 'a mslot = {
    mutable value : (int * 'a) option;  (* iteration, payload *)
    reads_done : bool array;     (* per-consumer get performed *)
    releases_done : bool array;  (* per-consumer consumed performed *)
  }

  type 'a t = 'a mslot array

  let create ~depth ~consumers =
    if depth <= 0 || consumers <= 0 then invalid_arg "Multicast.create";
    Array.init depth (fun _ ->
        { value = None;
          reads_done = Array.make consumers false;
          releases_done = Array.make consumers false })

  let slot t k = t.(k mod Array.length t)

  let put t ~iter v : unit Semantics.step =
    let s = slot t iter in
    match s.value with
    | Some _ -> Semantics.Blocked
    | None ->
      s.value <- Some (iter, v);
      Semantics.Ok ()

  let get t ~consumer ~iter : 'a Semantics.step =
    let s = slot t iter in
    match s.value with
    | Some (k, v) when k = iter ->
      if s.reads_done.(consumer) then
        raise (Semantics.Protocol_error "multicast double get by one consumer");
      s.reads_done.(consumer) <- true;
      Semantics.Ok v
    | _ -> Semantics.Blocked

  let consumed t ~consumer ~iter : unit Semantics.step =
    let s = slot t iter in
    (match s.value with
    | Some (k, _) when k = iter && s.reads_done.(consumer) -> ()
    | _ -> raise (Semantics.Protocol_error "multicast consumed before get"));
    if s.releases_done.(consumer) then
      raise (Semantics.Protocol_error "multicast double consumed");
    s.releases_done.(consumer) <- true;
    if Array.for_all Fun.id s.releases_done then begin
      (* Every consumer released: the slot cycles back to empty. *)
      s.value <- None;
      Array.fill s.reads_done 0 (Array.length s.reads_done) false;
      Array.fill s.releases_done 0 (Array.length s.releases_done) false
    end;
    Semantics.Ok ()
end
