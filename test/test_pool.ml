(* Tests for the domain pool and the parallel grid engine built on it:
   determinism across domain counts, exception propagation, and
   bit-identical parallel-vs-sequential functional simulation that
   matches the CPU reference at the production GEMM tile. *)

open Tawa_tensor
open Tawa_frontend
open Tawa_core
open Tawa_gpusim
module Pool = Tawa_pool.Pool

let small_tiles = { Kernels.block_m = 16; block_n = 16; block_k = 8 }
let cfg = Config.functional_test

(* Run [f] with the process-wide default domain count pinned to [d],
   restoring the previous override afterwards even on failure. *)
let with_domains d f =
  Pool.set_default_domains (Some d);
  Fun.protect ~finally:(fun () -> Pool.set_default_domains None) f

(* ------------------------------------------------------------------ *)
(* Pool primitives                                                     *)
(* ------------------------------------------------------------------ *)

let test_map_deterministic () =
  let xs = Array.init 100 (fun i -> i) in
  let f i = (i * i) + 7 in
  let expected = Array.map f xs in
  List.iter
    (fun d ->
      Alcotest.(check (array int))
        (Printf.sprintf "map with %d domains" d)
        expected
        (with_domains d (fun () -> Pool.map f xs)))
    [ 1; 2; 8 ]

let test_map_order_preserved () =
  (* Uneven per-item work: later items finish first under any real
     interleaving, but results must still land at their index. *)
  let xs = Array.init 32 (fun i -> i) in
  let f i =
    let acc = ref 0 in
    for j = 0 to (32 - i) * 1000 do
      acc := (!acc + j) land 0xFFFF
    done;
    (i, !acc)
  in
  let seq = with_domains 1 (fun () -> Pool.map f xs) in
  let par = with_domains 4 (fun () -> Pool.map f xs) in
  Alcotest.(check bool) "order preserved" true (seq = par);
  Array.iteri (fun i (j, _) -> Alcotest.(check int) "index" i j) par

let test_map_edge_sizes () =
  with_domains 4 (fun () ->
      Alcotest.(check (array int)) "empty" [||] (Pool.map (fun x -> x) [||]);
      Alcotest.(check (array int)) "singleton" [| 42 |] (Pool.map (fun x -> x * 42) [| 1 |]));
  (* More domains than items. *)
  Alcotest.(check (array int)) "domains > n" [| 2; 4 |]
    (with_domains 16 (fun () -> Pool.map (fun x -> 2 * x) [| 1; 2 |]))

let test_map_list_and_run_all () =
  Alcotest.(check (list int)) "map_list" [ 1; 4; 9 ]
    (with_domains 3 (fun () -> Pool.map_list (fun x -> x * x) [ 1; 2; 3 ]));
  with_domains 2 (fun () ->
      Alcotest.(check (array int)) "run_all" [| 10; 20 |]
        (Pool.run_all [| (fun () -> 10); (fun () -> 20) |]);
      Alcotest.(check (float 1e-9)) "max_float" 9.0
        (Pool.max_float (fun x -> x *. x) [| 1.0; -3.0; 2.0 |]))

exception Boom of int

let test_exception_propagation () =
  (* The worker that hits item 13 fails; the original exception (not a
     wrapper) must surface in the calling domain, for any domain
     count — including the sequential fallback. *)
  List.iter
    (fun d ->
      Alcotest.check_raises
        (Printf.sprintf "raises with %d domains" d)
        (Boom 13)
        (fun () ->
          with_domains d (fun () ->
              ignore
                (Pool.map
                   (fun i -> if i = 13 then raise (Boom 13) else i)
                   (Array.init 64 (fun i -> i))))))
    [ 1; 4 ]

let test_iter_disjoint_writes () =
  let out = Array.make 64 (-1) in
  with_domains 4 (fun () -> Pool.iter (fun i -> out.(i) <- 2 * i) (Array.init 64 (fun i -> i)));
  Alcotest.(check (array int)) "all slots written" (Array.init 64 (fun i -> 2 * i)) out

let test_nested_map_sequentializes () =
  (* A map inside a pool worker must not oversubscribe — and must still
     compute the right thing. *)
  let got =
    with_domains 4 (fun () ->
        Pool.map
          (fun i -> Array.fold_left ( + ) 0 (Pool.map (fun j -> i * j) (Array.init 8 (fun j -> j))))
          (Array.init 8 (fun i -> i)))
  in
  Alcotest.(check (array int)) "nested results" (Array.init 8 (fun i -> i * 28)) got

let test_sequential_spawns_no_domains () =
  (* At domain count 1 every entry point must take the plain loop:
     the lifetime spawn counter stays flat. A genuinely parallel map
     must have moved it at some point — proving the counter observes
     real spawns. *)
  let xs = Array.init 100 (fun i -> i) in
  with_domains 4 (fun () -> ignore (Pool.map (fun i -> i * 2) xs));
  Alcotest.(check bool) "parallel map spawned helpers" true
    (Pool.domains_spawned () > 0);
  let before = Pool.domains_spawned () in
  with_domains 1 (fun () ->
      ignore (Pool.map (fun i -> i + 1) xs);
      Pool.iter (fun _ -> ()) xs);
  with_domains 4 (fun () -> ignore (Pool.map (fun x -> x) [| 7 |]));
  Alcotest.(check int) "no helpers for sequential work" before
    (Pool.domains_spawned ())

let test_shared_pool_reuses_helpers () =
  (* The pool is persistent: repeated parallel maps at the same width
     reuse the resident helpers, so the lifetime spawn counter stays
     flat from the second call on — the per-launch spawn overhead the
     persistent pool exists to remove. *)
  let xs = Array.init 200 (fun i -> i) in
  with_domains 4 (fun () -> ignore (Pool.map (fun i -> i + 1) xs));
  let before = Pool.domains_spawned () in
  for _ = 1 to 5 do
    with_domains 4 (fun () -> ignore (Pool.map (fun i -> i * 3) xs));
    with_domains 3 (fun () -> Pool.iter (fun _ -> ()) xs)
  done;
  Alcotest.(check int) "spawn counter flat across repeated parallel maps"
    before (Pool.domains_spawned ());
  (* And the handle observes the resident set. *)
  Alcotest.(check bool) "resident helpers" true
    (Pool.helpers (Pool.shared ()) >= 3)

let test_shared_warm_and_shutdown () =
  let h = Pool.shared () in
  Alcotest.(check bool) "one process-wide handle" true (h == Pool.shared ());
  (* Warm to a pinned width; correct results and a full worker set
     must survive a shutdown (the pool respawns on demand). *)
  with_domains 3 (fun () -> Pool.warm h);
  Alcotest.(check bool) "warm spawned" true (Pool.helpers h >= 2);
  Pool.shutdown h;
  Alcotest.(check int) "helpers joined" 0 (Pool.helpers h);
  let xs = Array.init 64 (fun i -> i) in
  Alcotest.(check (array int))
    "map correct after shutdown"
    (Array.map (fun i -> i * 5) xs)
    (with_domains 4 (fun () -> Pool.map (fun i -> i * 5) xs));
  Alcotest.(check bool) "respawned" true (Pool.helpers h > 0)

let test_default_domains_override () =
  with_domains 3 (fun () ->
      Alcotest.(check int) "override wins" 3 (Pool.default_domains ()));
  Alcotest.(check bool) "restored positive" true (Pool.default_domains () >= 1)

(* ------------------------------------------------------------------ *)
(* Parallel grid engine: bit-identical to sequential                   *)
(* ------------------------------------------------------------------ *)

(* A functional GEMM over a grid of [tiles]-sized CTAs, FP16 in and out. *)
let run_gemm_grid ~tiles ~m ~n ~kk ~seed () =
  let c = Flow.compile (Kernels.gemm ~tiles ()) in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:(seed + 1) [| kk; n |] in
  let out = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  let cycles =
    Launch.run_grid_functional ~cfg c.Flow.program
      ~params:
        [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor out; Sim.Rint m; Sim.Rint n;
          Sim.Rint kk ]
      ~grid:(m / tiles.Kernels.block_m, n / tiles.Kernels.block_n, 1)
  in
  (a, b, out, cycles)

(* A 3x2 grid of 16x16 tiles, and the production 128x128x64 tiles on a
   4x4x1 grid (FP16 512x512x128): each must match the CPU reference and
   be bit-identical at every domain count. *)
let test_grid_gemm_bit_identical () =
  List.iter
    (fun (tiles, m, n, kk, seed) ->
      let label = Printf.sprintf "gemm %dx%dx%d" m n kk in
      let run = run_gemm_grid ~tiles ~m ~n ~kk ~seed in
      let a, b, out1, cycles1 = with_domains 1 run in
      let rel = Tensor.max_rel_diff out1 (Reference.gemm ~out_dtype:Dtype.F16 a b) in
      Alcotest.(check bool)
        (Printf.sprintf "%s matches the reference (max rel diff %.2e)" label rel)
        true (rel < 1e-3);
      List.iter
        (fun d ->
          let _, _, outd, cyclesd = with_domains d run in
          Alcotest.(check bool)
            (Printf.sprintf "%s tensors identical at %d domains" label d)
            true (Tensor.equal out1 outd);
          Alcotest.(check bool)
            (Printf.sprintf "%s cycles identical at %d domains" label d)
            true (cycles1 = cyclesd))
        [ 2; 4 ])
    [ (small_tiles, 48, 32, 24, 1); (Kernels.default_tiles, 512, 512, 128, 11) ]

let run_attention_grid () =
  let l = 64 and hd = 8 in
  let kernel = Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:hd ~causal:true () in
  let c =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1; persistent = false;
          use_coarse = true }
      kernel
  in
  let q = Tensor.random ~dtype:Dtype.F16 ~seed:31 [| l; hd |] in
  let kt = Tensor.random ~dtype:Dtype.F16 ~seed:32 [| l; hd |] in
  let v = Tensor.random ~dtype:Dtype.F16 ~seed:33 [| l; hd |] in
  let o = Tensor.create ~dtype:Dtype.F16 [| l; hd |] in
  let cycles =
    Launch.run_grid_functional ~cfg c.Flow.program
      ~params:[ Sim.Rtensor q; Sim.Rtensor kt; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]
      ~grid:(l / 16, 1, 1)
  in
  (o, cycles)

let test_grid_attention_bit_identical () =
  let o1, cycles1 = with_domains 1 run_attention_grid in
  let o4, cycles4 = with_domains 4 run_attention_grid in
  Alcotest.(check bool) "attention tensors identical" true (Tensor.equal o1 o4);
  Alcotest.(check bool) "attention cycles identical" true (cycles1 = cycles4)

let test_grid_deadlock_propagates () =
  (* A CTA that starves must still surface Sim_error through the pool,
     not hang or return silently. Wrong-arity params fail in every CTA;
     first failure wins and aborts the rest. *)
  let c = Flow.compile (Kernels.gemm ~tiles:small_tiles ()) in
  with_domains 4 (fun () ->
      Alcotest.(check bool) "Sim_error through pool" true
        (try
           ignore
             (Launch.run_grid_functional ~cfg c.Flow.program ~params:[ Sim.Rnone ]
                ~grid:(4, 4, 1));
           false
         with Sim.Sim_error _ -> true))

let suites =
  [
    ( "pool.primitives",
      [
        Alcotest.test_case "map deterministic across domains" `Quick
          test_map_deterministic;
        Alcotest.test_case "map preserves order" `Quick test_map_order_preserved;
        Alcotest.test_case "edge sizes" `Quick test_map_edge_sizes;
        Alcotest.test_case "map_list / run_all / max_float" `Quick
          test_map_list_and_run_all;
        Alcotest.test_case "exception propagation" `Quick test_exception_propagation;
        Alcotest.test_case "iter disjoint writes" `Quick test_iter_disjoint_writes;
        Alcotest.test_case "nested map sequentializes" `Quick
          test_nested_map_sequentializes;
        Alcotest.test_case "sequential spawns no domains" `Quick
          test_sequential_spawns_no_domains;
        Alcotest.test_case "shared pool reuses helpers" `Quick
          test_shared_pool_reuses_helpers;
        Alcotest.test_case "shared warm and shutdown" `Quick
          test_shared_warm_and_shutdown;
        Alcotest.test_case "default override" `Quick test_default_domains_override;
      ] );
    ( "pool.grid",
      [
        Alcotest.test_case "gemm grid bit-identical" `Quick test_grid_gemm_bit_identical;
        Alcotest.test_case "attention grid bit-identical" `Quick
          test_grid_attention_bit_identical;
        Alcotest.test_case "sim error propagates" `Quick test_grid_deadlock_propagates;
      ] );
  ]
