(** Demo task graphs shared by the examples, the test suite, the bench
    harness, and [tawac graph]: a full attention block, a split-K GEMM
    with a reduction epilogue, and an MoE grouped GEMM re-expressed as
    a graph. Builders are deterministic (fixed seeds): two builds of
    the same demo bind bit-identical inputs, so a graph replay of one
    build can be compared bit-for-bit against a serial run of
    another. *)

open Tawa_tensor
open Tawa_frontend
(* No [open Tawa_ir]: its [Graph] (use-def chains) would shadow the
   sibling task-graph module. *)
module Builder = Tawa_ir.Builder
module Types = Tawa_ir.Types
module Flow = Tawa_core.Flow
module Workloads = Tawa_core.Workloads
module Autotune = Tawa_core.Autotune
module Sim = Tawa_gpusim.Sim

type demo = {
  d_name : string;
  d_title : string;
  d_graph : Graph.t;
  d_outputs : (string * Tensor.t) list;
      (* final output tensors, mutated by execution *)
  d_reference : unit -> (string * Tensor.t) list;
      (* CPU reference for the same outputs, same order *)
}

let tiles16 = { Kernels.block_m = 16; block_n = 16; block_k = 16 }

let ws_options =
  { Flow.default_options with aref_depth = 2; mma_depth = 2 }

let gemm_node ~name ~tiles ~(a : Tensor.t) ~(b : Tensor.t) ~(c : Tensor.t)
    ~m ~n ~k () =
  let kernel = Kernels.gemm ~tiles ~dtype:Dtype.F16 () in
  Graph.node ~name ~kernel ~options:ws_options
    ~params:
      [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor c; Sim.Rint m; Sim.Rint n;
        Sim.Rint k ]
    ~grid:(m / tiles.Kernels.block_m, n / tiles.Kernels.block_n, 1)
    ~flops:(2.0 *. Float.of_int (m * n * k))
    ~family:(Autotune.Gemm { Workloads.m; n; k; dtype = Dtype.F16 })
    ()

(* ------------------------- attention block ------------------------- *)

(** The paper's motivating pipeline as one graph: X projects through
    Wq/Wk/Wv (three independent GEMMs — one wave), flash attention
    consumes Q/K/V, and the output projection GEMM finishes the block.
    Three waves; the QKV GEMMs overlap. *)
let attention_block () : demo =
  let l = 64 and d = 32 in
  let x = Tensor.random ~dtype:Dtype.F16 ~seed:101 [| l; d |] in
  let wq = Tensor.random ~dtype:Dtype.F16 ~seed:102 [| d; d |] in
  let wk = Tensor.random ~dtype:Dtype.F16 ~seed:103 [| d; d |] in
  let wv = Tensor.random ~dtype:Dtype.F16 ~seed:104 [| d; d |] in
  let wo = Tensor.random ~dtype:Dtype.F16 ~seed:105 [| d; d |] in
  let q = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  let k = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  let v = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  let y = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  let attn_kernel =
    Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:d ~causal:false ()
  in
  let graph =
    Graph.build
      [
        gemm_node ~name:"qkv.q" ~tiles:tiles16 ~a:x ~b:wq ~c:q ~m:l ~n:d ~k:d ();
        gemm_node ~name:"qkv.k" ~tiles:tiles16 ~a:x ~b:wk ~c:k ~m:l ~n:d ~k:d ();
        gemm_node ~name:"qkv.v" ~tiles:tiles16 ~a:x ~b:wv ~c:v ~m:l ~n:d ~k:d ();
        Graph.node ~name:"attention" ~kernel:attn_kernel
          ~options:
            { Flow.default_options with aref_depth = 2; mma_depth = 1;
              use_coarse = true }
          ~params:
            [ Sim.Rtensor q; Sim.Rtensor k; Sim.Rtensor v; Sim.Rtensor o;
              Sim.Rint l ]
          ~grid:(l / 16, 1, 1)
          ~flops:(Reference.attention_flops ~batch:1 ~heads:1 ~len:l ~head_dim:d ())
          ~family:
            (Autotune.Attention
               { Workloads.batch = 1; heads = 1; len = l; head_dim = d;
                 causal = false; mha_dtype = Dtype.F16 })
          ();
        gemm_node ~name:"out.proj" ~tiles:tiles16 ~a:o ~b:wo ~c:y ~m:l ~n:d ~k:d ();
      ]
  in
  {
    d_name = "attention";
    d_title = "attention block: QKV GEMMs -> flash attention -> output GEMM";
    d_graph = graph;
    d_outputs = [ ("q", q); ("k", k); ("v", v); ("o", o); ("y", y) ];
    d_reference =
      (fun () ->
        let qr = Reference.gemm ~out_dtype:Dtype.F16 x wq in
        let kr = Reference.gemm ~out_dtype:Dtype.F16 x wk in
        let vr = Reference.gemm ~out_dtype:Dtype.F16 x wv in
        let or_ =
          Reference.attention ~causal:false ~out_dtype:Dtype.F16 ~q:qr ~k:kr
            ~v:vr ()
        in
        let yr = Reference.gemm ~out_dtype:Dtype.F16 or_ wo in
        [ ("q", qr); ("k", kr); ("v", vr); ("o", or_); ("y", yr) ]);
  }

(* --------------------------- split-K GEMM -------------------------- *)

(* Reduction epilogue: out = ((p0 + p1) + p2) + p3, tile by tile. A
   memory-bound epilogue with no dot: lowered with synchronous TMA (no
   warp specialization to win here). *)
let reduce4_kernel () =
  Builder.kernel "splitk_reduce4"
    [ ("p0", Types.ptr Dtype.F16); ("p1", Types.ptr Dtype.F16);
      ("p2", Types.ptr Dtype.F16); ("p3", Types.ptr Dtype.F16);
      ("out", Types.ptr Dtype.F16); ("M", Types.i32); ("N", Types.i32) ]
    (fun b ps ->
      let p0, p1, p2, p3, out, m, n =
        match ps with
        | [ p0; p1; p2; p3; out; m; n ] -> (p0, p1, p2, p3, out, m, n)
        | _ -> assert false
      in
      let c1 = Builder.const_i b 1 in
      let desc p = Builder.make_tensor_desc b p ~sizes:[ m; n ] ~strides:[ n; c1 ] ~dtype:Dtype.F16 in
      let d0 = desc p0 and d1 = desc p1 and d2 = desc p2 and d3 = desc p3 in
      let dout = desc out in
      let offs_m = Builder.mul b (Builder.program_id b 0) (Builder.const_i b 16) in
      let offs_n = Builder.mul b (Builder.program_id b 1) (Builder.const_i b 16) in
      let load d = Builder.tma_load b d ~offsets:[ offs_m; offs_n ] ~shape:[ 16; 16 ] in
      let s = Builder.add b (load d0) (load d1) in
      let s = Builder.add b s (load d2) in
      let s = Builder.add b s (load d3) in
      Builder.tma_store b dout ~offsets:[ offs_m; offs_n ] s)

(** C[M,N] = A[M,K] B[K,N] split over K: four partial GEMMs over
    K-slices (independent — one wave) and a reduction epilogue that
    sums the partials. Two waves. *)
let split_k () : demo =
  let m = 64 and n = 32 and k = 128 in
  let s = 4 in
  let ks = k / s in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:201 [| m; k |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:202 [| k; n |] in
  (* Materialized K-slices: [slice2] copies, so the partial GEMMs bind
     distinct tensors and the planner sees them independent. *)
  let a_slices =
    List.init s (fun i ->
        Tensor.slice2 ~dtype:Dtype.F16 a ~r0:0 ~c0:(i * ks) ~rows:m ~cols:ks)
  in
  let b_slices =
    List.init s (fun i ->
        Tensor.slice2 ~dtype:Dtype.F16 b ~r0:(i * ks) ~c0:0 ~rows:ks ~cols:n)
  in
  let partials =
    List.init s (fun _ -> Tensor.create ~dtype:Dtype.F16 [| m; n |])
  in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  let partial_nodes =
    List.mapi
      (fun i (asl, (bsl, p)) ->
        gemm_node
          ~name:(Printf.sprintf "partial.k%d" i)
          ~tiles:tiles16 ~a:asl ~b:bsl ~c:p ~m ~n ~k:ks ())
      (List.combine a_slices (List.combine b_slices partials))
  in
  let reduce_node =
    Graph.node ~name:"reduce" ~kernel:(reduce4_kernel ())
      ~options:{ Flow.default_options with strategy = Flow.Sync_tma }
      ~params:
        (List.map (fun p -> Sim.Rtensor p) partials
        @ [ Sim.Rtensor c; Sim.Rint m; Sim.Rint n ])
      ~grid:(m / 16, n / 16, 1)
      ~flops:(3.0 *. Float.of_int (m * n))
      ()
  in
  {
    d_name = "splitk";
    d_title = "split-K GEMM: four K-slice partials -> reduction epilogue";
    d_graph = Graph.build (partial_nodes @ [ reduce_node ]);
    d_outputs = [ ("c", c) ];
    d_reference =
      (fun () ->
        (* Mirror the kernel's arithmetic exactly: partials rounded to
           F16 by the GEMM nodes, then pairwise F16 adds in the same
           association order as the epilogue. *)
        let prefs =
          List.map2
            (fun asl bsl -> Reference.gemm ~out_dtype:Dtype.F16 asl bsl)
            a_slices b_slices
        in
        let sum =
          match prefs with
          | first :: rest ->
            List.fold_left (fun acc p -> Tensor.map2 ( +. ) acc p) first rest
          | [] -> assert false
        in
        [ ("c", sum) ]);
  }

(* ------------------------- MoE grouped GEMM ------------------------ *)

(** Heterogeneous experts, one GEMM node each, fully independent: the
    whole group is a single wave — the graph-native version of the
    persistent grouped launch (Fig. 9), with the wave scheduler (not a
    persistent queue) providing the overlap. *)
let moe () : demo =
  let experts = [ (32, 32, 32); (32, 32, 64); (32, 32, 48); (32, 32, 16) ] in
  let parts =
    List.mapi
      (fun i (m, n, k) ->
        let a = Tensor.random ~dtype:Dtype.F16 ~seed:(301 + (2 * i)) [| m; k |] in
        let b = Tensor.random ~dtype:Dtype.F16 ~seed:(302 + (2 * i)) [| k; n |] in
        let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
        let node =
          gemm_node ~name:(Printf.sprintf "expert.%d" i) ~tiles:tiles16 ~a ~b ~c
            ~m ~n ~k ()
        in
        (node, (Printf.sprintf "expert%d" i, a, b, c)))
      experts
  in
  let nodes = List.map fst parts in
  let named = List.map snd parts in
  {
    d_name = "moe";
    d_title = "MoE grouped GEMM: four heterogeneous experts, one wave";
    d_graph = Graph.build nodes;
    d_outputs = List.map (fun (nm, _, _, c) -> (nm, c)) named;
    d_reference =
      (fun () ->
        List.map
          (fun (nm, a, b, _) -> (nm, Reference.gemm ~out_dtype:Dtype.F16 a b))
          named);
  }

(* ------------------------------ index ------------------------------ *)

let all : (string * string * (unit -> demo)) list =
  [
    ("attention", "attention block (QKV -> attention -> projection)", attention_block);
    ("splitk", "split-K GEMM with reduction epilogue", split_k);
    ("moe", "MoE grouped GEMM", moe);
  ]

(** Worst max-rel-diff of a demo's outputs against its CPU reference
    (call after executing the graph). *)
let check (d : demo) : float =
  List.fold_left2
    (fun acc (_, got) (_, want) -> Float.max acc (Tensor.max_rel_diff got want))
    0.0 d.d_outputs
    (d.d_reference ())
