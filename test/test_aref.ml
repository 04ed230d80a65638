(* Tests for the executable aref semantics (paper Fig. 4), the D-deep
   ring channels, and the model-checking scheduler. *)

open Tawa_aref

let ok_unit = function Semantics.Ok () -> true | Semantics.Blocked -> false
let blocked = function Semantics.Blocked -> true | Semantics.Ok _ -> false

(* The credits [(F, E)] of Fig. 4 in each state. *)
let credits (a : _ Semantics.t) =
  match a.Semantics.state with
  | Semantics.Empty -> (0, 1)
  | Semantics.Full _ -> (1, 0)
  | Semantics.Borrowed _ -> (0, 0)

let check_credits what want a = Alcotest.(check (pair int int)) what want (credits a)

(* ------------------------------------------------------------------ *)
(* Fig. 4 state machine                                               *)
(* ------------------------------------------------------------------ *)

let test_initial_state () =
  check_credits "F=0, E=1 initially" (0, 1) (Semantics.create ())

let test_put_rule () =
  let a = Semantics.create () in
  Alcotest.(check bool) "put fires on empty" true (ok_unit (Semantics.put a 42));
  check_credits "F=1, E=0 after put" (1, 0) a;
  (* Second put must block: slot not empty. *)
  Alcotest.(check bool) "put blocks on full" true (blocked (Semantics.put a 43))

let test_get_rule () =
  let a = Semantics.create () in
  Alcotest.(check bool) "get blocks on empty" true (blocked (Semantics.get a));
  ignore (Semantics.put a 7);
  (match Semantics.get a with
  | Semantics.Ok v -> Alcotest.(check int) "get returns payload" 7 v
  | Semantics.Blocked -> Alcotest.fail "get should fire on full");
  (* Borrowed: neither credit held. *)
  check_credits "F=0, E=0 borrowed" (0, 0) a;
  (* get again blocks (value already taken). *)
  Alcotest.(check bool) "get blocks on borrowed" true (blocked (Semantics.get a))

let test_consumed_rule () =
  let a = Semantics.create () in
  ignore (Semantics.put a 1);
  ignore (Semantics.get a);
  Alcotest.(check bool) "consumed fires" true (ok_unit (Semantics.consumed a));
  check_credits "E=1 restored" (0, 1) a;
  (* The slot is reusable: full put/get/consumed cycle again. *)
  Alcotest.(check bool) "slot reusable" true (ok_unit (Semantics.put a 2))

let test_consumed_protocol_errors () =
  let a = Semantics.create () in
  Alcotest.(check bool) "double release raises" true
    (try
       ignore (Semantics.consumed a);
       false
     with Semantics.Protocol_error _ -> true);
  let b = Semantics.create () in
  ignore (Semantics.put b 5);
  Alcotest.(check bool) "consumed on full raises" true
    (try
       ignore (Semantics.consumed b);
       false
     with Semantics.Protocol_error _ -> true)

let test_put_blocks_until_consumed () =
  (* The happens-before chain of §III-B: a second put cannot overwrite a
     value that has not been consumed. *)
  let a = Semantics.create () in
  ignore (Semantics.put a 1);
  Alcotest.(check bool) "blocked while full" true (blocked (Semantics.put a 2));
  ignore (Semantics.get a);
  Alcotest.(check bool) "still blocked while borrowed" true (blocked (Semantics.put a 2));
  ignore (Semantics.consumed a);
  Alcotest.(check bool) "unblocked after consumed" true (ok_unit (Semantics.put a 2))

(* Property: under any sequence of attempted operations, payloads are
   never lost or duplicated. (The credit invariant, at most one of F and
   E, holds by construction: no state holds both.) *)
let prop_payloads_any_sequence =
  QCheck.Test.make ~name:"aref payloads in order under random op sequences" ~count:500
    QCheck.(list_of_size (Gen.int_range 1 60) (int_range 0 2))
    (fun ops ->
      let a = Semantics.create () in
      let next = ref 0 and got = ref [] in
      List.iter
        (fun op ->
          (try
             match op with
             | 0 -> (
               match Semantics.put a !next with
               | Semantics.Ok () -> incr next
               | Semantics.Blocked -> ())
             | 1 -> (
               match Semantics.get a with
               | Semantics.Ok v -> got := v :: !got
               | Semantics.Blocked -> ())
             | _ -> ( match Semantics.consumed a with _ -> ())
           with Semantics.Protocol_error _ -> ()))
        ops;
      (* Received values are a prefix of 0,1,2,... in order. *)
      let received = List.rev !got in
      List.for_all2 ( = ) received (List.init (List.length received) Fun.id))

(* ------------------------------------------------------------------ *)
(* Rings                                                              *)
(* ------------------------------------------------------------------ *)

let test_ring_slot_mapping () =
  let r = Ring.create ~depth:3 in
  Alcotest.(check int) "slot 0" 0 (Ring.slot_of_iter r 0);
  Alcotest.(check int) "slot 4" 1 (Ring.slot_of_iter r 4);
  Alcotest.(check int) "slot 5" 2 (Ring.slot_of_iter r 5)

let test_ring_allows_depth_outstanding () =
  let r = Ring.create ~depth:3 in
  (* The producer can run D iterations ahead before blocking. *)
  Alcotest.(check bool) "put 0" true (ok_unit (Ring.put r ~iter:0 100));
  Alcotest.(check bool) "put 1" true (ok_unit (Ring.put r ~iter:1 101));
  Alcotest.(check bool) "put 2" true (ok_unit (Ring.put r ~iter:2 102));
  Alcotest.(check bool) "put 3 blocks (slot 0 busy)" true (blocked (Ring.put r ~iter:3 103));
  (* Consumer frees slot 0 -> iteration 3 can proceed. *)
  (match Ring.get r ~iter:0 with
  | Semantics.Ok v -> Alcotest.(check int) "fifo head" 100 v
  | Semantics.Blocked -> Alcotest.fail "get 0 should fire");
  ignore (Ring.consumed r ~iter:0);
  Alcotest.(check bool) "put 3 proceeds" true (ok_unit (Ring.put r ~iter:3 103))

let test_ring_depth_one_is_rendezvous () =
  let r = Ring.create ~depth:1 in
  Alcotest.(check bool) "put 0" true (ok_unit (Ring.put r ~iter:0 0));
  Alcotest.(check bool) "put 1 blocks" true (blocked (Ring.put r ~iter:1 1));
  ignore (Ring.get r ~iter:0);
  ignore (Ring.consumed r ~iter:0);
  Alcotest.(check bool) "put 1 fires" true (ok_unit (Ring.put r ~iter:1 1))

(* Slot [k mod D] is shared by iterations k, k + D, ...: a get or a
   release of one iteration never acts on another's value. *)
let test_ring_keeps_iterations_apart () =
  let r = Ring.create ~depth:1 in
  Alcotest.(check bool) "put 0" true (ok_unit (Ring.put r ~iter:0 10));
  Alcotest.(check bool) "get 1 waits while the slot holds iteration 0" true
    (blocked (Ring.get r ~iter:1));
  (match Ring.get r ~iter:0 with
  | Semantics.Ok v -> Alcotest.(check int) "get 0 reads put 0" 10 v
  | Semantics.Blocked -> Alcotest.fail "get 0 should fire");
  Alcotest.(check bool) "releasing iteration 1 raises" true
    (try
       ignore (Ring.consumed r ~iter:1);
       false
     with Semantics.Protocol_error _ -> true);
  Alcotest.(check bool) "rel 0" true (ok_unit (Ring.consumed r ~iter:0));
  Alcotest.(check bool) "put 1" true (ok_unit (Ring.put r ~iter:1 11));
  match Ring.get r ~iter:1 with
  | Semantics.Ok v -> Alcotest.(check int) "get 1 reads put 1" 11 v
  | Semantics.Blocked -> Alcotest.fail "get 1 should fire"

let test_ring_invalid () =
  Alcotest.check_raises "bad depth" (Invalid_argument "Ring.create: depth must be positive")
    (fun () -> ignore (Ring.create ~depth:0));
  let r = Ring.create ~depth:2 in
  Alcotest.check_raises "negative iter"
    (Invalid_argument "Ring.slot_of_iter: negative iteration") (fun () ->
      ignore (Ring.put r ~iter:(-1) 0))

(* FIFO property: consumer in iteration order receives values in
   producer order, for any depth. *)
let prop_ring_fifo =
  QCheck.Test.make ~name:"ring delivers FIFO for any depth" ~count:200
    QCheck.(pair (int_range 1 6) (int_range 1 40))
    (fun (depth, n) ->
      let r = Ring.create ~depth in
      let out = ref [] in
      (* Drive both sides eagerly: producer as far ahead as possible. *)
      let p = ref 0 and c = ref 0 in
      while !c < n do
        (match if !p < n then Ring.put r ~iter:!p !p else Semantics.Blocked with
        | Semantics.Ok () -> incr p
        | Semantics.Blocked -> ());
        (match Ring.get r ~iter:!c with
        | Semantics.Ok v ->
          out := v :: !out;
          ignore (Ring.consumed r ~iter:!c);
          incr c
        | Semantics.Blocked -> ())
      done;
      List.rev !out = List.init n Fun.id)

(* ------------------------------------------------------------------ *)
(* Scheduler / model checking                                         *)
(* ------------------------------------------------------------------ *)

(* The canonical producer/consumer program of the loop-distribution
   pass: the producer puts iterations [0..n), the consumer gets and
   releases them in order, over ring 0. *)
let producer_consumer_program ~n =
  [ { Schedule.name = "producer";
      actions = Array.init n (fun k -> Schedule.Put { ring = 0; iter = k; value = k });
      pc = 0 };
    { Schedule.name = "consumer";
      actions =
        Array.init (2 * n) (fun j ->
            if j mod 2 = 0 then Schedule.Get { ring = 0; iter = j / 2 }
            else Schedule.Consumed { ring = 0; iter = j / 2 });
      pc = 0 } ]

let test_producer_consumer_completes_roundrobin () =
  let rings = [| Schedule.Ring (Ring.create ~depth:2) |] in
  let agents = producer_consumer_program ~n:10 in
  let tick = ref 0 in
  let choose runnable =
    incr tick;
    runnable.(!tick mod Array.length runnable)
  in
  match Schedule.run ~rings ~choose agents with
  | Schedule.Completed results ->
    let consumer_values = List.assoc "consumer" results in
    Alcotest.(check (list int)) "in order" (List.init 10 Fun.id) consumer_values
  | Schedule.Deadlock names -> Alcotest.failf "deadlock: %s" (String.concat "," names)
  | Schedule.Error (_, e) -> Alcotest.fail e

let prop_producer_consumer_never_deadlocks =
  (* Any schedule (driven by a random choice seed) completes with FIFO
     delivery: the protocol emitted by loop distribution is
     deadlock-free for every interleaving and every depth. *)
  QCheck.Test.make ~name:"producer/consumer deadlock-free under random schedules"
    ~count:300
    QCheck.(triple (int_range 1 4) (int_range 1 25) int)
    (fun (depth, n, seed) ->
      let rings = [| Schedule.Ring (Ring.create ~depth) |] in
      let agents = producer_consumer_program ~n in
      let state = ref (seed land 0xFFFFFF) in
      let choose runnable =
        state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
        runnable.(!state mod Array.length runnable)
      in
      match Schedule.run ~rings ~choose agents with
      | Schedule.Completed results ->
        List.assoc "consumer" results = List.init n Fun.id
      | Schedule.Deadlock _ | Schedule.Error _ -> false)

let test_out_of_order_consumer_deadlocks () =
  (* A consumer that waits for iteration 1 before iteration 0 on a
     depth-1 ring deadlocks: its get of iteration 1 waits while the slot
     holds iteration 0, and the producer cannot put iteration 1 until
     iteration 0 is released. *)
  let producer =
    { Schedule.name = "producer";
      actions = [| Schedule.Put { ring = 0; iter = 0; value = 0 };
                   Schedule.Put { ring = 0; iter = 1; value = 1 } |];
      pc = 0 }
  in
  let consumer =
    { Schedule.name = "consumer";
      actions = [| Schedule.Get { ring = 0; iter = 1 };
                   Schedule.Consumed { ring = 0; iter = 1 };
                   Schedule.Get { ring = 0; iter = 0 };
                   Schedule.Consumed { ring = 0; iter = 0 } |];
      pc = 0 }
  in
  match
    Schedule.run ~rings:[| Schedule.Ring (Ring.create ~depth:1) |] ~choose:(fun r -> r.(0))
      [ producer; consumer ]
  with
  | Schedule.Deadlock names ->
    Alcotest.(check (list string)) "both agents blocked" [ "producer"; "consumer" ] names
  | Schedule.Completed _ -> Alcotest.fail "completed: get 1 read iteration 0's value"
  | Schedule.Error (_, e) -> Alcotest.fail e

let test_multicast_all_consumers_must_release () =
  let m = Ring.Multicast.create ~depth:1 ~consumers:2 in
  Alcotest.(check bool) "put" true (ok_unit (Ring.Multicast.put m ~iter:0 99));
  (match Ring.Multicast.get m ~consumer:0 ~iter:0 with
  | Semantics.Ok v -> Alcotest.(check int) "c0 reads" 99 v
  | Semantics.Blocked -> Alcotest.fail "c0 get");
  (* Slot not reusable until both consumers release. *)
  ignore (Ring.Multicast.consumed m ~consumer:0 ~iter:0);
  Alcotest.(check bool) "put blocks (c1 pending)" true
    (blocked (Ring.Multicast.put m ~iter:1 100));
  (match Ring.Multicast.get m ~consumer:1 ~iter:0 with
  | Semantics.Ok v -> Alcotest.(check int) "c1 reads same value" 99 v
  | Semantics.Blocked -> Alcotest.fail "c1 get");
  ignore (Ring.Multicast.consumed m ~consumer:1 ~iter:0);
  Alcotest.(check bool) "put proceeds after all release" true
    (ok_unit (Ring.Multicast.put m ~iter:1 100))

let test_multicast_double_get_rejected () =
  let m = Ring.Multicast.create ~depth:1 ~consumers:2 in
  ignore (Ring.Multicast.put m ~iter:0 1);
  ignore (Ring.Multicast.get m ~consumer:0 ~iter:0);
  Alcotest.(check bool) "double get raises" true
    (try
       ignore (Ring.Multicast.get m ~consumer:0 ~iter:0);
       false
     with Semantics.Protocol_error _ -> true)

let test_multicast_straggler_blocks_slot_reuse () =
  (* Depth 2: the producer can run two iterations ahead, but slot 0 is
     only reusable for iter 2 once EVERY consumer has released iter 0.
     Consumer 1 straggles while consumer 0 races ahead. *)
  let m = Ring.Multicast.create ~depth:2 ~consumers:2 in
  Alcotest.(check bool) "put 0" true (ok_unit (Ring.Multicast.put m ~iter:0 10));
  Alcotest.(check bool) "put 1" true (ok_unit (Ring.Multicast.put m ~iter:1 11));
  (* c0 drains both iterations. *)
  (match Ring.Multicast.get m ~consumer:0 ~iter:0 with
  | Semantics.Ok v -> Alcotest.(check int) "c0 iter0" 10 v
  | Semantics.Blocked -> Alcotest.fail "c0 get 0");
  ignore (Ring.Multicast.consumed m ~consumer:0 ~iter:0);
  (match Ring.Multicast.get m ~consumer:0 ~iter:1 with
  | Semantics.Ok v -> Alcotest.(check int) "c0 iter1" 11 v
  | Semantics.Blocked -> Alcotest.fail "c0 get 1");
  ignore (Ring.Multicast.consumed m ~consumer:0 ~iter:1);
  (* Slot 0 still held by the straggler: iter 2 must not overwrite it. *)
  Alcotest.(check bool) "put 2 blocks on straggler" true
    (blocked (Ring.Multicast.put m ~iter:2 12));
  (match Ring.Multicast.get m ~consumer:1 ~iter:0 with
  | Semantics.Ok v -> Alcotest.(check int) "c1 still sees iter0" 10 v
  | Semantics.Blocked -> Alcotest.fail "c1 get 0");
  (* Read performed but not released: reuse is still forbidden. *)
  Alcotest.(check bool) "put 2 blocks until release" true
    (blocked (Ring.Multicast.put m ~iter:2 12));
  ignore (Ring.Multicast.consumed m ~consumer:1 ~iter:0);
  Alcotest.(check bool) "put 2 proceeds after release" true
    (ok_unit (Ring.Multicast.put m ~iter:2 12))

let test_multicast_get_resets_per_iteration () =
  (* A recycled slot must clear its per-consumer read marks: one get per
     consumer per ITERATION, not per slot lifetime. *)
  let m = Ring.Multicast.create ~depth:1 ~consumers:1 in
  ignore (Ring.Multicast.put m ~iter:0 7);
  (match Ring.Multicast.get m ~consumer:0 ~iter:0 with
  | Semantics.Ok v -> Alcotest.(check int) "iter0" 7 v
  | Semantics.Blocked -> Alcotest.fail "get 0");
  ignore (Ring.Multicast.consumed m ~consumer:0 ~iter:0);
  ignore (Ring.Multicast.put m ~iter:1 8);
  (* Same slot, new iteration: this get is legal, not a double get. *)
  (match Ring.Multicast.get m ~consumer:0 ~iter:1 with
  | Semantics.Ok v -> Alcotest.(check int) "iter1" 8 v
  | Semantics.Blocked -> Alcotest.fail "get 1");
  (* But a second get of the SAME iteration is a protocol error. *)
  Alcotest.(check bool) "double get of iter1 raises" true
    (try
       ignore (Ring.Multicast.get m ~consumer:0 ~iter:1);
       false
     with Semantics.Protocol_error _ -> true)

let test_multicast_later_iteration_waits () =
  (* A consumer that has read and released iteration 0 asks for
     iteration 1 of the same slot before the straggler released 0: it
     waits for the put of iteration 1 instead of reading 0 again. *)
  let m = Ring.Multicast.create ~depth:1 ~consumers:2 in
  ignore (Ring.Multicast.put m ~iter:0 10);
  ignore (Ring.Multicast.get m ~consumer:0 ~iter:0);
  ignore (Ring.Multicast.consumed m ~consumer:0 ~iter:0);
  Alcotest.(check bool) "c0 get 1 waits" true (blocked (Ring.Multicast.get m ~consumer:0 ~iter:1));
  ignore (Ring.Multicast.get m ~consumer:1 ~iter:0);
  ignore (Ring.Multicast.consumed m ~consumer:1 ~iter:0);
  Alcotest.(check bool) "put 1" true (ok_unit (Ring.Multicast.put m ~iter:1 11));
  match Ring.Multicast.get m ~consumer:0 ~iter:1 with
  | Semantics.Ok v -> Alcotest.(check int) "c0 reads iteration 1" 11 v
  | Semantics.Blocked -> Alcotest.fail "c0 get 1 should fire"

(* Schedule drives a multicast ring: each reading agent is a consumer,
   and the producer's second put waits for both releases. *)
let test_multicast_schedule () =
  let reader name =
    { Schedule.name;
      actions = [| Schedule.Get { ring = 0; iter = 0 }; Schedule.Consumed { ring = 0; iter = 0 };
                   Schedule.Get { ring = 0; iter = 1 }; Schedule.Consumed { ring = 0; iter = 1 } |];
      pc = 0 }
  in
  let producer =
    { Schedule.name = "producer";
      actions = [| Schedule.Put { ring = 0; iter = 0; value = 5 };
                   Schedule.Put { ring = 0; iter = 1; value = 6 } |];
      pc = 0 }
  in
  let rings = [| Schedule.Multicast (Ring.Multicast.create ~depth:1 ~consumers:2) |] in
  match Schedule.run ~rings ~choose:(fun r -> r.(0)) [ producer; reader "c0"; reader "c1" ] with
  | Schedule.Completed results ->
    Alcotest.(check (list int)) "c0 reads both" [ 5; 6 ] (List.assoc "c0" results);
    Alcotest.(check (list int)) "c1 reads both" [ 5; 6 ] (List.assoc "c1" results)
  | Schedule.Deadlock names -> Alcotest.failf "deadlock: %s" (String.concat "," names)
  | Schedule.Error (_, e) -> Alcotest.fail e

let test_multicast_release_discipline () =
  let m = Ring.Multicast.create ~depth:1 ~consumers:2 in
  ignore (Ring.Multicast.put m ~iter:0 1);
  (* consumed before get is a protocol error, not a block. *)
  Alcotest.(check bool) "consumed before get raises" true
    (try
       ignore (Ring.Multicast.consumed m ~consumer:1 ~iter:0);
       false
     with Semantics.Protocol_error _ -> true);
  ignore (Ring.Multicast.get m ~consumer:0 ~iter:0);
  ignore (Ring.Multicast.consumed m ~consumer:0 ~iter:0);
  (* double consumed by the same consumer is likewise rejected. *)
  Alcotest.(check bool) "double consumed raises" true
    (try
       ignore (Ring.Multicast.consumed m ~consumer:0 ~iter:0);
       false
     with Semantics.Protocol_error _ -> true)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "aref.semantics",
      [
        Alcotest.test_case "initial state" `Quick test_initial_state;
        Alcotest.test_case "put rule" `Quick test_put_rule;
        Alcotest.test_case "get rule" `Quick test_get_rule;
        Alcotest.test_case "consumed rule" `Quick test_consumed_rule;
        Alcotest.test_case "protocol errors" `Quick test_consumed_protocol_errors;
        Alcotest.test_case "put waits for consumed" `Quick test_put_blocks_until_consumed;
      ] );
    qsuite "aref.semantics.props" [ prop_payloads_any_sequence ];
    ( "aref.ring",
      [
        Alcotest.test_case "slot mapping" `Quick test_ring_slot_mapping;
        Alcotest.test_case "depth outstanding" `Quick test_ring_allows_depth_outstanding;
        Alcotest.test_case "depth 1 rendezvous" `Quick test_ring_depth_one_is_rendezvous;
        Alcotest.test_case "iterations kept apart" `Quick test_ring_keeps_iterations_apart;
        Alcotest.test_case "invalid args" `Quick test_ring_invalid;
      ] );
    qsuite "aref.ring.props" [ prop_ring_fifo ];
    ( "aref.schedule",
      [
        Alcotest.test_case "round robin completes" `Quick
          test_producer_consumer_completes_roundrobin;
        Alcotest.test_case "ooo consumer" `Quick test_out_of_order_consumer_deadlocks;
      ] );
    qsuite "aref.schedule.props" [ prop_producer_consumer_never_deadlocks ];
    ( "aref.multicast",
      [
        Alcotest.test_case "all must release" `Quick test_multicast_all_consumers_must_release;
        Alcotest.test_case "double get rejected" `Quick test_multicast_double_get_rejected;
        Alcotest.test_case "straggler blocks slot reuse" `Quick
          test_multicast_straggler_blocks_slot_reuse;
        Alcotest.test_case "get resets per iteration" `Quick
          test_multicast_get_resets_per_iteration;
        Alcotest.test_case "later iteration waits" `Quick test_multicast_later_iteration_waits;
        Alcotest.test_case "release discipline" `Quick test_multicast_release_discipline;
        Alcotest.test_case "schedule drives it" `Quick test_multicast_schedule;
      ] );
  ]
