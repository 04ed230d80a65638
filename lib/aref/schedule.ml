(** A tiny concurrency harness for model-checking aref protocols.

    Agents are sequences of channel operations on a shared set of rings.
    The scheduler executes agents step by step under an arbitrary
    interleaving (provided as a choice function) and reports completion,
    deadlock (all unfinished agents blocked), or protocol error. Tests
    use this to show the paper's happens-before claims hold under every
    schedule the generator explores, and arefcheck's startup check runs
    each partition's first pass through it. *)

type action =
  | Put of { ring : int; iter : int; value : int }
  | Get of { ring : int; iter : int }
  | Consumed of { ring : int; iter : int }

type agent = { name : string; actions : action array; mutable pc : int }

(** A shared ring: one reader, or several on a multicast ring, whose
    reading agents are its consumers, numbered in agent order. *)
type ring = Ring of int Ring.t | Multicast of int Ring.Multicast.t

type outcome =
  | Completed of (string * int list) list
      (** per-agent list of values received by [Get], in order *)
  | Deadlock of string list  (** names of blocked agents *)
  | Error of string * string  (** the agent that broke the protocol, and how *)

(* Every step fires an action or ends the run, so the run ends within
   one step per action. *)
let run ~(rings : ring array) ~(choose : int array -> int) (agents : agent list) : outcome =
  let agents = Array.of_list agents in
  let received = Array.make (Array.length agents) [] in
  let consumers = Hashtbl.create 8 and readers = Array.make (Array.length rings) 0 in
  Array.iteri
    (fun i a ->
      Array.iter
        (function
          | (Get { ring; _ } | Consumed { ring; _ }) when not (Hashtbl.mem consumers (ring, i)) ->
            Hashtbl.add consumers (ring, i) readers.(ring);
            readers.(ring) <- readers.(ring) + 1
          | _ -> ())
        a.actions)
    agents;
  let unit_ok = function Semantics.Ok () -> true | Semantics.Blocked -> false in
  let culprit = ref "" in
  let fired i =
    let a = agents.(i) in
    culprit := a.name;
    let ok =
      match a.actions.(a.pc) with
      | Put { ring; iter; value } ->
        unit_ok
          (match rings.(ring) with
          | Ring r -> Ring.put r ~iter value
          | Multicast m -> Ring.Multicast.put m ~iter value)
      | Get { ring; iter } -> (
        let consumer = Hashtbl.find consumers (ring, i) in
        match
          match rings.(ring) with
          | Ring r -> Ring.get r ~iter
          | Multicast m -> Ring.Multicast.get m ~consumer ~iter
        with
        | Semantics.Ok v ->
          received.(i) <- v :: received.(i);
          true
        | Semantics.Blocked -> false)
      | Consumed { ring; iter } ->
        let consumer = Hashtbl.find consumers (ring, i) in
        unit_ok
          (match rings.(ring) with
          | Ring r -> Ring.consumed r ~iter
          | Multicast m -> Ring.Multicast.consumed m ~consumer ~iter)
    in
    if ok then a.pc <- a.pc + 1;
    ok
  in
  let rec loop () =
    match
      List.filter
        (fun i -> agents.(i).pc < Array.length agents.(i).actions)
        (List.init (Array.length agents) Fun.id)
    with
    | [] ->
      Completed
        (Array.to_list (Array.mapi (fun i a -> (a.name, List.rev received.(i))) agents))
    | runnable ->
      (* Let the schedule choose among unfinished agents; if the chosen
         one is blocked, try the others before declaring deadlock. *)
      let c = choose (Array.of_list runnable) in
      if List.exists fired (c :: List.filter (( <> ) c) runnable) then loop ()
      else Deadlock (List.map (fun i -> agents.(i).name) runnable)
  in
  try loop () with Semantics.Protocol_error msg -> Error (!culprit, msg)

(** Ping-pong program (paper §VI, future work): two agents alternate
    producer/consumer roles across iterations. Agent 0 produces even
    iterations into ring 0 and consumes odd iterations from ring 1;
    agent 1 mirrors it. Work (and hence tensor-core vs data-movement
    duty) alternates between the warp groups every iteration, which is
    how ping-pong kernels balance shifting compute/transfer demands. *)
let pingpong_program ~n =
  (* Iterations of each parity, re-indexed densely per ring. *)
  let agent name ~produces_even =
    let actions = ref [] in
    for k = 0 to n - 1 do
      let even = k mod 2 = 0 in
      let ring = if even then 0 else 1 in
      let iter = k / 2 in
      if even = produces_even then
        (* producer role this iteration *)
        actions := Put { ring; iter; value = k } :: !actions
      else begin
        (* consumer role this iteration *)
        actions := Consumed { ring; iter } :: Get { ring; iter } :: !actions
      end
    done;
    { name; actions = Array.of_list (List.rev !actions); pc = 0 }
  in
  [ agent "pingpong-0" ~produces_even:true; agent "pingpong-1" ~produces_even:false ]
