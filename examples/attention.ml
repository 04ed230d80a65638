(* FlashAttention-style multi-head attention through Tawa: the
   coarse-grained T/C/U pipeline (§III-D.2) overlaps the online-softmax
   CUDA-core work with the tensor-core GEMMs.

     dune exec examples/attention.exe *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_core
open Tawa_gpusim

let check_config ~causal =
  let bm = 16 and bn = 16 and d = 8 and l = 64 in
  let kernel = Kernels.attention ~block_m:bm ~block_n:bn ~head_dim:d ~causal () in
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1; persistent = false;
          use_coarse = true }
      kernel
  in
  let q = Tensor.random ~dtype:Dtype.F16 ~seed:21 [| l; d |] in
  let k = Tensor.random ~dtype:Dtype.F16 ~seed:22 [| l; d |] in
  let v = Tensor.random ~dtype:Dtype.F16 ~seed:23 [| l; d |] in
  let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  ignore
    (Launch.run_grid_functional ~cfg:Config.functional_test compiled.Flow.program
       ~params:[ Sim.Rtensor q; Sim.Rtensor k; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]
       ~grid:(l / bm, 1, 1));
  let want = Reference.attention ~causal ~out_dtype:Dtype.F16 ~q ~k ~v () in
  Printf.printf "  causal=%-5b  coarse-pipelined output vs reference: max rel diff %.2e\n"
    causal
    (Tensor.max_rel_diff o want);
  compiled

let () =
  print_endline "== Attention through Tawa's coarse-grained pipeline ==\n";
  let compiled = check_config ~causal:false in
  ignore (check_config ~causal:true);

  (* The split the coarse pass stamps on the loop body, which code
     generation emits as is: T is issued one iteration ahead, C runs on
     the CUDA cores meanwhile, and U is left in flight. Unstamped ops
     are C; the channel releases belong to the schedule. *)
  print_endline "\nStages of the loop body (T = QK^T, C = online softmax, U = PV):";
  Op.iter_region
    (fun loop ->
      if Op.attr_bool loop "coarse_pipeline" = Some true then
        List.iter
          (fun (op : Op.op) ->
            match op.Op.opcode with
            | Op.Aref_consumed | Op.Yield -> ()
            | _ ->
              Printf.printf "    [%s] %s\n"
                (Option.value (Op.attr_string op "stage") ~default:"C")
                (Op.opcode_name op.Op.opcode))
          (Op.entry_block (List.hd loop.Op.regions)).Op.ops)
    compiled.Flow.transformed.Kernel.body;

  (* Performance across sequence lengths, against the baselines. *)
  print_endline "\nSimulated FP16 MHA (B=4, 32 heads, d=128), TFLOPS:";
  Printf.printf "  %-6s %10s %10s %10s %10s\n" "L" "Tawa" "no-coarse" "Triton" "FA3";
  List.iter
    (fun len ->
      let shape = Workloads.paper_mha len in
      let get fw = Option.get (Tawa_baselines.Frameworks.mha fw shape) in
      let tawa = get Tawa_baselines.Frameworks.Tawa in
      let triton = get Tawa_baselines.Frameworks.Triton in
      let fa3 = get Tawa_baselines.Frameworks.Fa3 in
      (* Warp specialization without the coarse pipeline, for contrast. *)
      let kernel = Kernels.attention ~block_m:128 ~block_n:128 ~head_dim:128 () in
      let nc =
        Flow.compile
          ~options:
            { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1;
              persistent = false; use_coarse = false }
          kernel
      in
      let grid, params = Workloads.mha_launch shape ~block_m:128 in
      let nc_t =
        Launch.estimate ~cfg:Config.h100 nc.Flow.program ~params ~grid
          ~flops:(Workloads.mha_flops shape)
      in
      Printf.printf "  %-6d %10.1f %10.1f %10.1f %10.1f\n" len tawa.Launch.tflops
        nc_t.Launch.tflops triton.Launch.tflops fa3.Launch.tflops)
    [ 1024; 4096; 16384 ];
  print_endline
    "\nThe coarse pipeline hides the softmax under the next tile's QK^T; Tawa\n\
     lands within ~90% of the hand-written FA3 schedule (paper: 89-96%)."
