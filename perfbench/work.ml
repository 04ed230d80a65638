(* The three workloads, and the traced re-issue of each op's calls.

   An untraced op calls the library's own entry points (Autotune.search,
   Frameworks.gemm/mha, Graph.replay), so a change anywhere behind them
   shows. A traced op re-issues the same public calls one layer at a
   time, each inside a span; its results must be bit-identical to the
   untraced ones (the same checks run on both), which keeps the re-issue
   faithful to the entry point it mirrors. *)

open Tawa_tensor
open Tawa_frontend
open Tawa_core
open Tawa_gpusim
open Tawa_baselines
module Graph = Tawa_graph.Graph
module Kernel = Tawa_ir.Kernel
module Isa = Tawa_machine.Isa
module Progcache = Tawa_machine.Progcache
module Codegen = Tawa_machine.Codegen
module Manager = Tawa_passes.Manager
module Statcheck = Tawa_analysis.Statcheck
module Pool = Tawa_pool.Pool

let cfg = Config.h100
let timing cfg = { cfg with Config.mode = Config.Timing }

(* What the traced calls did, for the per-layer counts: simulated
   cycles of every estimate, and the autotuner's candidate tally. *)
type tally = {
  mutable cycles : float;
  mutable candidates : int;
  mutable pruned : int;
  mutable measured : int;
}

let tally = { cycles = 0.0; candidates = 0; pruned = 0; measured = 0 }

let reset_tally () =
  tally.cycles <- 0.0;
  tally.candidates <- 0;
  tally.pruned <- 0;
  tally.measured <- 0

(* ------------------------- calls into layers ----------------------- *)

(* The compile/estimate calls a paper row or a search makes. [plain]
   calls the library directly; [traced] splits each call into its
   layers, one span per public function. *)
type calls = {
  compile : Flow.options -> Kernel.t -> Flow.compiled;
  estimate :
    int array -> Config.t -> Isa.program -> Sim.rt list -> int * int * int -> float ->
    Launch.timing;
  grouped :
    Config.t -> (Isa.program * Sim.rt list * (int * int * int) * float) list ->
    Launch.timing;
}

let plain =
  {
    compile = (fun options k -> Flow.compile ~options k);
    estimate =
      (fun rep_pid cfg p params grid flops ->
        Launch.estimate ~rep_pid ~cfg p ~params ~grid ~flops);
    grouped = (fun cfg items -> Launch.estimate_grouped ~cfg items);
  }

let isa_instrs (p : Isa.program) =
  List.fold_left (fun a (s : Isa.stream) -> a + Array.length s.Isa.instrs) 0 p.Isa.streams

(* Manager.compile runs statcheck's lints itself; the traced build turns
   that off for the call and runs the same check as its own span. *)
let traced_passes mopts kernel =
  let mode = Statcheck.current_mode () in
  Statcheck.set_mode Statcheck.Off;
  let r =
    Fun.protect
      ~finally:(fun () -> Statcheck.set_mode mode)
      (fun () ->
        Span.counted "passes.compile"
          ~count:(fun r -> Kernel.count_ops r.Manager.kernel)
          (fun () -> Manager.compile ~options:mopts kernel))
  in
  Span.with_ "analysis.lint" (fun () ->
      match mode with
      | Statcheck.Off -> ()
      | Statcheck.Warn -> ignore (Statcheck.check_kernel r.Manager.kernel)
      | Statcheck.Error -> Statcheck.assert_clean ~what:r.Manager.kernel.Kernel.name r.Manager.kernel);
  r

let lower k = Span.counted "codegen.lower" ~count:isa_instrs (fun () -> Codegen.lower k)

(* Flow.build_entry, one layer per span. *)
let traced_build (o : Flow.options) kernel : Flow.cache_entry =
  match o.Flow.strategy with
  | Flow.Warp_specialized ->
    let r =
      traced_passes
        { Manager.default_options with
          aref_depth = o.Flow.aref_depth; mma_depth = o.Flow.mma_depth;
          num_consumer_wgs = o.Flow.num_consumer_wgs; persistent = o.Flow.persistent;
          use_coarse = o.Flow.use_coarse }
        kernel
    in
    { Flow.e_transformed = r.Manager.kernel; e_program = lower r.Manager.kernel;
      e_ws = r.Manager.warp_specialized; e_coarse = r.Manager.coarse }
  | Flow.Sw_pipelined stages ->
    let k =
      Span.counted "passes.compile" ~count:Kernel.count_ops (fun () ->
          let k = Tawa_passes.Sw_pipeline.apply ~stages kernel in
          Tawa_ir.Verifier.verify k;
          k)
    in
    { Flow.e_transformed = k; e_program = lower k; e_ws = false; e_coarse = false }
  | Flow.Sync_tma | Flow.Naive ->
    Span.with_ "passes.compile" (fun () -> Flow.build_entry o kernel)

(* Flow.compile: fingerprint, then the cache lookup, whose span is named
   after its outcome; a miss builds the entry in child spans. *)
let traced_compile (o : Flow.options) kernel : Flow.compiled =
  let missed = ref false in
  Span.with_ "progcache.hit"
    ~rename:(fun n -> if !missed then "progcache.miss" else n)
    (fun () ->
      let fp = Span.with_ "progcache.fingerprint" (fun () -> Progcache.kernel_fingerprint kernel) in
      let e =
        Progcache.find_or_add Flow.cache ~key:(fp ^ "|" ^ Flow.options_key o) (fun () ->
            missed := true;
            traced_build o kernel)
      in
      Flow.maybe_env_check (Flow.hit kernel e o))

let traced_prepare cfg program =
  let misses () = (Engine.decode_cache_stats ()).Progcache.misses in
  let m0 = misses () in
  ignore
    (Span.with_ "engine.prepare_hit"
       ~rename:(fun n -> if misses () > m0 then "engine.prepare_miss" else n)
       (fun () -> Engine.prepare ~cfg program))

let estimated (t : Launch.timing) =
  tally.cycles <- tally.cycles +. t.Launch.cycles;
  t

(* The estimate's own Engine.prepare is then a decode-cache hit: the
   launch span carries one extra digest, which the trace overhead
   counts. *)
let launch_span f =
  let i0 = Engine.instructions_retired () in
  estimated
    (Span.counted "launch.estimate" ~count:(fun _ -> Engine.instructions_retired () - i0) f)

let traced =
  {
    compile = traced_compile;
    estimate =
      (fun rep_pid cfg p params grid flops ->
        traced_prepare (timing cfg) p;
        launch_span (fun () -> Launch.estimate ~rep_pid ~cfg p ~params ~grid ~flops));
    grouped =
      (fun cfg items ->
        List.iter (fun (p, _, _, _) -> traced_prepare (timing cfg) p) items;
        launch_span (fun () -> Launch.estimate_grouped ~cfg items));
  }

(* ------------------------------ checks ----------------------------- *)

let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

let same_measurement (a : Autotune.measurement) (b : Autotune.measurement) =
  a.Autotune.candidate = b.Autotune.candidate
  && same_float a.Autotune.tflops b.Autotune.tflops
  && same_float a.Autotune.cycles b.Autotune.cycles

(* ============================ autotune-cold ========================= *)

(* Families whose cold search takes about 0.1 s (GEMM at K <= 1024, MHA
   at three lengths): K = 16384 searches run 0.5-0.7 s and would drown
   the rest in one median. *)
let autotune_families : (string * Autotune.family) list =
  List.concat_map
    (fun dtype ->
      List.map
        (fun k ->
          ( Printf.sprintf "gemm.%s.k%d" (Dtype.to_string dtype) k,
            Autotune.Gemm (Workloads.paper_gemm ~dtype k) ))
        [ 256; 512; 1024 ])
    [ Dtype.F16; Dtype.F8E4M3 ]
  @ List.concat_map
      (fun (dtype, causal) ->
        List.map
          (fun len ->
            ( Printf.sprintf "mha.%s.%s.l%d" (Dtype.to_string dtype)
                (if causal then "causal" else "full") len,
              Autotune.Attention (Workloads.paper_mha ~dtype ~causal len) ))
          [ 1024; 4096; 16384 ])
      [ (Dtype.F16, false); (Dtype.F16, true); (Dtype.F8E4M3, false); (Dtype.F8E4M3, true) ]

let cold_caches () =
  Flow.clear_cache ();
  Engine.clear_decode_cache ()

(* Autotune.measure with [calls]. *)
let measure_with c family (cand : Autotune.candidate) : Autotune.measurement =
  let compiled = c.compile (Autotune.options_of cand) (Autotune.kernel_of family cand) in
  let p = compiled.Flow.program and tcfg = timing cfg in
  let t =
    match family with
    | Autotune.Gemm s ->
      let grid, params = Workloads.gemm_launch s ~tiles:cand.Autotune.tiles in
      c.estimate [| 0; 0; 0 |] tcfg p params grid (Workloads.gemm_flops s)
    | Autotune.Attention s ->
      let bm = cand.Autotune.tiles.Kernels.block_m in
      let grid, params = Workloads.mha_launch s ~block_m:bm in
      let rep =
        if s.Workloads.causal then [| max 0 ((s.Workloads.len / bm / 2) - 1); 0; 0 |]
        else [| 0; 0; 0 |]
      in
      c.estimate rep tcfg p params grid (Workloads.mha_flops s)
  in
  { Autotune.candidate = cand; tflops = t.Launch.tflops; cycles = t.Launch.cycles }

let strictly_best = function
  | [] -> invalid_arg "empty candidate space"
  | hd :: tl ->
    List.fold_left (fun acc m -> if m.Autotune.tflops > acc.Autotune.tflops then m else acc) hd tl

(* Autotune.search without a store, one layer per span. *)
let traced_search family : Autotune.measurement =
  Span.with_ "autotune.search" (fun () ->
      let cands =
        Span.counted "autotune.space" ~count:List.length (fun () -> Autotune.space family)
      in
      let verdicts =
        List.map
          (fun cand ->
            let compiled =
              traced_compile (Autotune.options_of cand) (Autotune.kernel_of family cand)
            in
            ( cand,
              Span.with_ "analysis.occupancy" (fun () ->
                  Statcheck.occupancy compiled.Flow.transformed) ))
          cands
      in
      let feasible =
        List.filter_map
          (fun (c, v) ->
            match v with Tawa_machine.Resources.Feasible _ -> Some c | _ -> None)
          verdicts
      in
      let to_measure = if feasible = [] then cands else feasible in
      let n = List.length cands and m = List.length to_measure in
      tally.candidates <- tally.candidates + n;
      tally.pruned <- tally.pruned + (n - m);
      tally.measured <- tally.measured + m;
      strictly_best (List.map (measure_with traced family) to_measure))

(* ============================ paper-sweep =========================== *)

type cell = { fw : string; tflops : float option; cycles : float option }

let cell fw (t : Launch.timing option) =
  { fw; tflops = Option.map (fun t -> t.Launch.tflops) t;
    cycles = Option.map (fun t -> t.Launch.cycles) t }

let same_cells a b =
  let same_opt x y =
    match (x, y) with
    | Some x, Some y -> same_float x y
    | None, None -> true
    | _ -> false
  in
  List.length a = List.length b
  && List.for_all2
       (fun x y -> x.fw = y.fw && same_opt x.tflops y.tflops && same_opt x.cycles y.cycles)
       a b

(* Frameworks.gemm with [c]. *)
let gemm_with c (fw : Frameworks.t) (shape : Workloads.gemm_shape) : Launch.timing option =
  let dtype = shape.Workloads.dtype in
  let fixed ~cfg ~tiles ~coop ~d ~p ~persistent =
    let compiled =
      c.compile
        { Flow.default_options with aref_depth = d; mma_depth = p; num_consumer_wgs = coop;
          persistent; use_coarse = false }
        (Kernels.gemm ~tiles ~dtype ())
    in
    let grid, params = Workloads.gemm_launch shape ~tiles in
    c.estimate [| 0; 0; 0 |] cfg compiled.Flow.program params grid (Workloads.gemm_flops shape)
  in
  let wide = Frameworks.tiles_128x256 in
  match fw with
  | Frameworks.Tawa ->
    let cands =
      Span.counted "autotune.space" ~count:List.length (fun () ->
          Autotune.gemm_candidates ~dtype ())
    in
    let best =
      (strictly_best (List.map (measure_with c (Autotune.Gemm shape)) cands)).Autotune.candidate
    in
    Some
      (fixed ~cfg ~tiles:best.Autotune.tiles ~coop:best.Autotune.coop
         ~d:best.Autotune.aref_depth ~p:best.Autotune.mma_depth
         ~persistent:best.Autotune.persistent)
  | Frameworks.Cublas ->
    Some (fixed ~cfg:(Frameworks.cublas_cfg cfg) ~tiles:wide ~coop:2 ~d:3 ~p:2 ~persistent:true)
  | Frameworks.Triton ->
    let tiles = Frameworks.tiles_128x128 in
    let compiled =
      c.compile
        { Flow.default_options with strategy = Flow.Sw_pipelined 3; aref_depth = 3 }
        (Kernels.gemm ~tiles ~dtype ())
    in
    let grid, params = Workloads.gemm_launch shape ~tiles in
    Some
      (c.estimate [| 0; 0; 0 |] cfg compiled.Flow.program params grid
         (Workloads.gemm_flops shape))
  | Frameworks.Tilelang ->
    Some
      (fixed ~cfg:(Frameworks.tilelang_cfg ~dtype cfg) ~tiles:wide ~coop:2 ~d:4 ~p:2
         ~persistent:false)
  | Frameworks.Thunderkittens ->
    Some
      (fixed ~cfg:(Frameworks.thunderkittens_cfg ~dtype cfg) ~tiles:wide ~coop:2 ~d:2 ~p:1
         ~persistent:false)
  | Frameworks.Fa3 -> None

(* Frameworks.mha with [c]. *)
let mha_with c (fw : Frameworks.t) (shape : Workloads.mha_shape) : Launch.timing option =
  let dtype = shape.Workloads.mha_dtype and causal = shape.Workloads.causal in
  let bm = Frameworks.mha_block_m in
  let kernel () =
    Kernels.attention ~block_m:bm ~block_n:Frameworks.mha_block_n
      ~head_dim:shape.Workloads.head_dim ~causal ~dtype ()
  in
  let run cfg options =
    let compiled = c.compile options (kernel ()) in
    let grid, params = Workloads.mha_launch shape ~block_m:bm in
    let rep = [| (if causal then max 0 ((shape.Workloads.len / bm / 2) - 1) else 0); 0; 0 |] in
    Some (c.estimate rep cfg compiled.Flow.program params grid (Workloads.mha_flops shape))
  in
  let ws cfg ~d ~coarse =
    run cfg
      { Flow.default_options with aref_depth = d; mma_depth = 1; num_consumer_wgs = 1;
        persistent = false; use_coarse = coarse }
  in
  let fp8 = Dtype.equal dtype Dtype.F8E4M3 in
  match fw with
  | Frameworks.Tawa -> ws cfg ~d:2 ~coarse:true
  | Frameworks.Fa3 -> ws (Frameworks.fa3_cfg cfg) ~d:3 ~coarse:true
  | Frameworks.Triton ->
    run cfg { Flow.default_options with strategy = Flow.Sw_pipelined 2; aref_depth = 2 }
  | Frameworks.Tilelang ->
    if fp8 then None else ws (Frameworks.tilelang_cfg ~dtype cfg) ~d:3 ~coarse:false
  | Frameworks.Thunderkittens ->
    if fp8 then None else ws (Frameworks.thunderkittens_cfg ~dtype cfg) ~d:2 ~coarse:false
  | Frameworks.Cublas -> None

(* Fig. 9 rows, as the bench harness defines them: Tawa (warp-
   specialized, persistent or grouped) against Triton (software
   pipelined, one launch per group member). *)
let fig9_tiles = Frameworks.tiles_128x128
let ws_d3p2 = { Flow.default_options with aref_depth = 3; mma_depth = 2 }
let sw3 = { Flow.default_options with strategy = Flow.Sw_pipelined 3; aref_depth = 3 }

let batched_with c ~ws ~batch (s : Workloads.gemm_shape) =
  let compiled =
    c.compile
      (if ws then { ws_d3p2 with persistent = true } else sw3)
      (Kernels.batched_gemm ~tiles:fig9_tiles ~dtype:s.Workloads.dtype ())
  in
  let grid, params = Workloads.batched_gemm_launch ~batch s ~tiles:fig9_tiles in
  let t =
    c.estimate [| 0; 0; 0 |] cfg compiled.Flow.program params grid
      (Workloads.batched_gemm_flops ~batch s)
  in
  (t.Launch.tflops, t.Launch.cycles)

let grouped_with c ~ws (group : Workloads.group) =
  let member (s : Workloads.gemm_shape) =
    let compiled =
      c.compile (if ws then ws_d3p2 else sw3)
        (Kernels.gemm ~tiles:fig9_tiles ~dtype:s.Workloads.dtype ())
    in
    let grid, params = Workloads.gemm_launch s ~tiles:fig9_tiles in
    (compiled.Flow.program, params, grid, Workloads.gemm_flops s)
  in
  if ws then
    let t = c.grouped cfg (List.map member group) in
    (t.Launch.tflops, t.Launch.cycles)
  else
    let cycles, flops =
      List.fold_left
        (fun (cy, fl) s ->
          let p, params, grid, f = member s in
          (cy +. (c.estimate [| 0; 0; 0 |] cfg p params grid f).Launch.cycles, fl +. f))
        (0.0, 0.0) group
    in
    (Config.tflops cfg ~flops ~cycles, cycles)

type row = {
  label : string;
  run : traced:bool -> cell list;
  expect_fail : string list; (* frameworks with a "fail" cell *)
}

let paper_rows : row list =
  let fig8 =
    List.concat_map
      (fun dtype ->
        List.map
          (fun k ->
            let shape = Workloads.paper_gemm ~dtype k in
            { label = Printf.sprintf "fig8.%s.k%d" (Dtype.to_string dtype) k;
              run =
                (fun ~traced:tr ->
                  List.map
                    (fun fw ->
                      cell (Frameworks.name fw)
                        (if tr then gemm_with traced fw shape
                         else Frameworks.gemm ~cfg fw shape))
                    Frameworks.all_gemm);
              expect_fail = [] })
          Workloads.paper_gemm_ks)
      [ Dtype.F16; Dtype.F8E4M3 ]
  in
  let two label tawa triton =
    let cell fw (tflops, cycles) = { fw; tflops = Some tflops; cycles = Some cycles } in
    { label;
      run =
        (fun ~traced:tr ->
          let c = if tr then traced else plain in
          [ cell "Triton" (triton c); cell "Tawa" (tawa c) ]);
      expect_fail = [] }
  in
  let fig9 =
    List.map
      (fun (m, n, k) ->
        let s = { Workloads.m; n; k; dtype = Dtype.F16 } in
        two
          (Printf.sprintf "fig9.batched.%dx%dx%d" m n k)
          (fun c -> batched_with c ~ws:true ~batch:8 s)
          (fun c -> batched_with c ~ws:false ~batch:8 s))
      [ (1024, 1024, 1024); (2048, 2048, 1024); (2048, 2048, 4096); (4096, 4096, 2048);
        (4096, 4096, 8192) ]
    @ List.mapi
        (fun i (_, g) ->
          two (Printf.sprintf "fig9.grouped.%d" i)
            (fun c -> grouped_with c ~ws:true g)
            (fun c -> grouped_with c ~ws:false g))
        Workloads.paper_groups
  in
  (* The paper: TileLang and ThunderKittens fail to run FP8 attention. *)
  let fig10 =
    List.concat_map
      (fun (dtype, causal) ->
        List.map
          (fun len ->
            let shape = Workloads.paper_mha ~dtype ~causal len in
            { label =
                Printf.sprintf "fig10.%s.%s.l%d" (Dtype.to_string dtype)
                  (if causal then "causal" else "full") len;
              run =
                (fun ~traced:tr ->
                  List.map
                    (fun fw ->
                      cell (Frameworks.name fw)
                        (if tr then mha_with traced fw shape
                         else Frameworks.mha ~cfg fw shape))
                    Frameworks.all_mha);
              expect_fail =
                (if Dtype.equal dtype Dtype.F8E4M3 then
                   [ Frameworks.name Frameworks.Tilelang; Frameworks.name Frameworks.Thunderkittens ]
                 else []) })
          Workloads.paper_mha_lens)
      [ (Dtype.F16, false); (Dtype.F16, true); (Dtype.F8E4M3, false); (Dtype.F8E4M3, true) ]
  in
  fig8 @ fig9 @ fig10

let fails_where_expected row cells =
  List.for_all (fun c -> (c.tflops = None) = List.mem c.fw row.expect_fail) cells

let tawa_tflops cells =
  match List.find_opt (fun c -> c.fw = "Tawa") cells with
  | Some { tflops = Some t; _ } -> t
  | _ -> nan

(* ========================== functional-graph ======================== *)

let graph_len = 256
let graph_dim = 64
let graph_tile = 64

(* GEMM outputs must match the CPU reference to 1e-3, attention and
   everything downstream of it to 2e-2: the tolerances `tawac run`
   applies to the same kernels. *)
let gemm_tol = 1e-3
let attention_tol = 2e-2

type graph_outputs = {
  outputs : (string * Tensor.t * float) list; (* name, tensor, tolerance *)
  reference : (string * Tensor.t) list;
}

let graph_inputs ~seed =
  let l = graph_len and d = graph_dim in
  let rnd i shape = Tensor.random ~dtype:Dtype.F16 ~seed:((seed * 8) + i) shape in
  (rnd 1 [| l; d |], rnd 2 [| d; d |], rnd 3 [| d; d |], rnd 4 [| d; d |], rnd 5 [| d; d |])

let graph_reference (x, wq, wk, wv, wo) =
  let q = Reference.gemm ~out_dtype:Dtype.F16 x wq in
  let k = Reference.gemm ~out_dtype:Dtype.F16 x wk in
  let v = Reference.gemm ~out_dtype:Dtype.F16 x wv in
  let o = Reference.attention ~causal:false ~out_dtype:Dtype.F16 ~q ~k ~v () in
  [ ("q", q); ("k", k); ("v", v); ("o", o); ("y", Reference.gemm ~out_dtype:Dtype.F16 o wo) ]

(* QKV projection GEMMs -> flash attention -> output projection. *)
let graph_build (x, wq, wk, wv, wo) =
  let l = graph_len and d = graph_dim and t = graph_tile in
  let tiles = { Kernels.block_m = t; block_n = t; block_k = t } in
  let out () = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
  let q = out () and k = out () and v = out () and o = out () and y = out () in
  let gemm name a b c =
    Graph.node ~name ~kernel:(Kernels.gemm ~tiles ~dtype:Dtype.F16 ())
      ~options:{ Flow.default_options with aref_depth = 2; mma_depth = 2 }
      ~params:[ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor c; Sim.Rint l; Sim.Rint d; Sim.Rint d ]
      ~grid:(l / t, d / t, 1)
      ~flops:(Reference.gemm_flops ~m:l ~n:d ~k:d)
      ()
  in
  let attention =
    Graph.node ~name:"attention"
      ~kernel:(Kernels.attention ~block_m:t ~block_n:t ~head_dim:d ~causal:false ())
      ~options:{ Flow.default_options with aref_depth = 2; mma_depth = 1; use_coarse = true }
      ~params:[ Sim.Rtensor q; Sim.Rtensor k; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]
      ~grid:(l / t, 1, 1)
      ~flops:(Reference.attention_flops ~batch:1 ~heads:1 ~len:l ~head_dim:d ())
      ()
  in
  let nodes = [ gemm "qkv.q" x wq q; gemm "qkv.k" x wk k; gemm "qkv.v" x wv v; attention;
                gemm "out.proj" o wo y ] in
  ( Graph.build nodes,
    [ ("q", q, gemm_tol); ("k", k, gemm_tol); ("v", v, gemm_tol); ("o", o, attention_tol);
      ("y", y, attention_tol) ],
    List.fold_left (fun a (s : Graph.spec) -> a +. s.Graph.sp_flops) 0.0 nodes )

let graph_check g =
  List.for_all2
    (fun (name, t, tol) (rname, want) -> name = rname && Tensor.max_rel_diff t want <= tol)
    g.outputs g.reference

let graph_clear g = List.iter (fun (_, t, _) -> Tensor.fill t 0.0) g.outputs

(* Graph.replay, one span per layer: wave bookkeeping (graph), the
   pool dispatch the caller waits in (pool), and the CTAs the calling
   domain executes itself (graph.cta). *)
let traced_replay (inst : Graph.instance) =
  Span.with_ "graph.replay" (fun () ->
      Array.iter
        (fun members ->
          let units =
            Array.concat
              (Array.to_list
                 (Array.map
                    (fun ni ->
                      let n = inst.Graph.nodes.(ni) in
                      Launch.cta_units ~prepared:n.Graph.i_prepared
                        ~program:n.Graph.i_compiled.Flow.program
                        ~params:n.Graph.i_spec.Graph.sp_params ~grid:n.Graph.i_spec.Graph.sp_grid)
                    members))
          in
          let i0 = Engine.instructions_retired () in
          ignore
            (Span.counted "pool.map"
               ~count:(fun _ -> Engine.instructions_retired () - i0)
               (fun () -> Pool.map (fun u -> Span.with_ "graph.cta" u) units)))
        inst.Graph.graph.Graph.waves)
