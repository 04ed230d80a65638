(* Quickstart: write a tile GEMM, let Tawa warp-specialize it, check it
   against the reference, and look at what the compiler did.

     dune exec examples/quickstart.exe *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_core
open Tawa_gpusim

let () =
  print_endline "== Tawa quickstart: automatic warp specialization for a GEMM ==\n";

  (* 1. Write a kernel the way you would in Triton: tiled loads, a dot
     in a loop, a store. No warps, no barriers, no pipelines. *)
  let tiles = { Kernels.block_m = 16; block_n = 16; block_k = 8 } in
  let kernel = Kernels.gemm ~tiles () in
  Printf.printf "Frontend kernel (%d ops):\n\n%s\n" (Kernel.count_ops kernel)
    (Printer.kernel_to_string kernel);

  (* 2. Compile. Tawa partitions the program into producer/consumer
     warp groups connected by arefs, pipelines the MMAs, and lowers to
     PTX-like machine code. *)
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 2; num_consumer_wgs = 1; persistent = false;
          use_coarse = false }
      kernel
  in
  Printf.printf "After warp specialization (%d ops):\n\n%s\n"
    (Kernel.count_ops compiled.Flow.transformed)
    (Flow.dump_ir compiled);
  Printf.printf "Machine code:\n\n%s\n" (Flow.dump_asm compiled);

  (* 3. Run it on the simulated H100, functionally. *)
  let m = 64 and n = 64 and k = 48 in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| m; k |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| k; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  ignore
    (Launch.run_grid_functional ~cfg:Config.functional_test compiled.Flow.program
       ~params:
         [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor c; Sim.Rint m; Sim.Rint n; Sim.Rint k ]
       ~grid:(m / 16, n / 16, 1));
  let want = Reference.gemm ~out_dtype:Dtype.F16 a b in
  Printf.printf "Functional check (%dx%dx%d): max rel diff vs reference = %.2e\n" m n k
    (Tensor.max_rel_diff c want);

  (* 4. Estimate performance at paper scale with paper tiles. *)
  let shape = Workloads.paper_gemm 8192 in
  let cand, best = Autotune.tune_gemm shape in
  Printf.printf
    "\nPaper-scale GEMM (8192^3, FP16): %.0f TFLOPS with D=%d P=%d %dx%d tiles%s%s\n"
    best.Launch.tflops cand.Autotune.aref_depth cand.Autotune.mma_depth
    cand.Autotune.tiles.Kernels.block_m cand.Autotune.tiles.Kernels.block_n
    (if cand.Autotune.coop > 1 then
       Printf.sprintf " (%d cooperative consumer WGs)" cand.Autotune.coop
     else "")
    (if cand.Autotune.persistent then ", persistent" else "")
