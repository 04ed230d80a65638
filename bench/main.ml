(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (§V) on the simulated H100.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- fig8         -- one figure
     dune exec bench/main.exe -- fig8 fig10   -- a subset
     (figures: fig8 fig9 fig10 fig11 fig12 extra)

   Flags:
     --json [PATH]   also write a machine-readable trajectory record
                     (default PATH: BENCH_PR9.json). Each selected
                     figure is timed twice: on 1 domain and on the full
                     domain pool. Caches are cleared before each pass
                     so every pass pays one compile+decode per distinct
                     program.
                     Figures with a representative wave additionally
                     run the three simulation-mode passes (functional /
                     timing-only / timing+pool); see the comment above
                     [run_modes].
     --domains N     override the worker-domain count (default:
                     TAWA_DOMAINS or Domain.recommended_domain_count)
     --seq           shorthand for --domains 1

   Sweep points (frameworks x shapes) run on the domain pool; each
   point's own simulation is single-threaded, so results are identical
   for any domain count. Absolute TFLOPS come from the calibrated cost
   model; the claims checked in EXPERIMENTS.md are the paper's
   *shapes*: orderings, speedup factors, crossovers, feasibility
   holes. claims.ml asserts several of them on this program's output.
   Every Fig. 8, 10 and 12 cell is an autotune candidate timed through
   [Autotune.time]. *)

open Tawa_tensor
open Tawa_frontend
open Tawa_core
open Tawa_baselines
open Tawa_gpusim
module Pool = Tawa_pool.Pool
module Json = Report.Json

let cfg = Config.h100

(* All table output funnels through [pr] so the sequential-baseline
   timing pass of --json mode can run the figures silently. *)
let quiet = ref false
let pr fmt = Printf.ksprintf (fun s -> if not !quiet then (print_string s; flush stdout)) fmt

let section title = pr "\n=== %s ===\n" title

(* ------------------------------------------------------------------ *)
(* Fig. 8: GEMM, M = N = 8192, K sweep, FP16 and FP8                   *)
(* ------------------------------------------------------------------ *)

let fig8_precision dtype =
  let fws = Frameworks.all_gemm in
  (* One pool task per K: each sweeps all frameworks (the autotuner
     inside the Tawa point is the expensive part). *)
  let data =
    Pool.map_list
      (fun k ->
        let shape = Workloads.paper_gemm ~dtype k in
        ( k,
          List.map
            (fun fw ->
              match Frameworks.gemm ~cfg fw shape with
              | Some t -> (fw, t.Launch.tflops)
              | None -> (fw, 0.0))
            fws ))
      Workloads.paper_gemm_ks
  in
  let ratios = Hashtbl.create 8 in
  List.iter
    (fun (_, results) ->
      let tawa = List.assoc Frameworks.Tawa results in
      List.iter
        (fun (fw, v) ->
          if fw <> Frameworks.Tawa && v > 0.0 then
            Hashtbl.replace ratios fw
              ((tawa /. v) :: Option.value (Hashtbl.find_opt ratios fw) ~default:[]))
        results)
    data;
  pr "%s"
    (Report.render
       ~header:("K" :: List.map Frameworks.name fws)
       (List.map
          (fun (k, results) ->
            string_of_int k :: List.map (fun (_, v) -> Report.f1 v) results)
          data));
  let avgs =
    List.filter_map
      (fun fw -> Option.map (fun rs -> (fw, Report.geomean rs)) (Hashtbl.find_opt ratios fw))
      fws
  in
  pr "Average Tawa speedup: %s\n"
    (String.concat ", "
       (List.map (fun (fw, g) -> Printf.sprintf "%s %.2fx" (Frameworks.name fw) g) avgs));
  Json.Obj
    [ ( "tflops_rows",
        Json.List
          (List.map
             (fun (k, results) ->
               Json.Obj
                 (("K", Json.Int k)
                 :: List.map (fun (fw, v) -> (Frameworks.name fw, Json.Float v)) results))
             data) );
      ( "avg_tawa_speedup",
        Json.Obj (List.map (fun (fw, g) -> (Frameworks.name fw, Json.Float g)) avgs) ) ]

let fig8 () =
  section "Fig. 8a: FP16 GEMM (TFLOPS), M=N=8192";
  let a = fig8_precision Dtype.F16 in
  section "Fig. 8b: FP8 GEMM (TFLOPS), M=N=8192";
  let b = fig8_precision Dtype.F8E4M3 in
  Json.Obj [ ("fp16", a); ("fp8", b) ]

(* ------------------------------------------------------------------ *)
(* Fig. 9: batched and grouped GEMM, Tawa vs Triton                    *)
(* ------------------------------------------------------------------ *)

let tiles = Frameworks.tiles_128x128

(* The Triton baseline: Ampere-style software pipelining, 3 stages. *)
let triton_options =
  { Flow.default_options with strategy = Flow.Sw_pipelined 3; aref_depth = 3 }

let batched_timing ~ws ~batch (shape : Workloads.gemm_shape) =
  let kernel = Kernels.batched_gemm ~tiles ~dtype:shape.Workloads.dtype () in
  let compiled =
    if ws then
      Flow.compile
        ~options:
          { Flow.default_options with aref_depth = 3; mma_depth = 2; num_consumer_wgs = 1; persistent = true;
            use_coarse = false }
        kernel
    else Flow.compile ~options:triton_options kernel
  in
  let grid, params = Workloads.batched_gemm_launch ~batch shape ~tiles in
  Launch.estimate ~cfg compiled.Flow.program ~params ~grid
    ~flops:(Workloads.batched_gemm_flops ~batch shape)

(* Tawa's grouped GEMM keeps CTAs resident and pops heterogeneous tiles
   from one queue, overlapping one GEMM's loads with another's compute;
   the Triton baseline launches each group as its own kernel. *)
let grouped_timing ~ws (group : Workloads.group) =
  if ws then begin
    let items =
      List.map
        (fun (s : Workloads.gemm_shape) ->
          let kernel = Kernels.gemm ~tiles ~dtype:s.Workloads.dtype () in
          let compiled =
            Flow.compile
              ~options:
                { Flow.default_options with aref_depth = 3; mma_depth = 2; num_consumer_wgs = 1;
                  persistent = false; use_coarse = false }
              kernel
          in
          let grid, params = Workloads.gemm_launch s ~tiles in
          (compiled.Flow.program, params, grid, Workloads.gemm_flops s))
        group
    in
    Launch.estimate_grouped ~cfg items
  end
  else begin
    (* One kernel launch per group. *)
    let cycles, flops =
      List.fold_left
        (fun (cycles, flops) (s : Workloads.gemm_shape) ->
          let kernel = Kernels.gemm ~tiles ~dtype:s.Workloads.dtype () in
          let compiled = Flow.compile ~options:triton_options kernel in
          let grid, params = Workloads.gemm_launch s ~tiles in
          let t =
            Launch.estimate ~cfg compiled.Flow.program ~params ~grid
              ~flops:(Workloads.gemm_flops s)
          in
          (cycles +. t.Launch.cycles, flops +. Workloads.gemm_flops s))
        (0.0, 0.0) group
    in
    {
      Launch.cycles;
      seconds = Config.cycles_to_seconds cfg cycles;
      tflops = Config.tflops cfg ~flops ~cycles;
      tc_utilization = 0.0;
      stats =
        { Tawa_gpusim.Sim.tc_busy = 0.0; tma_busy = 0.0; tma_bytes = 0.0;
          wgmma_count = 0; tma_count = 0; steps = 0 };
      profile = None;
    }
  end

let fig9 () =
  section "Fig. 9 (left): FP16 batched GEMM (batch = 8), Tawa vs Triton";
  let shapes =
    [ (1024, 1024, 1024); (2048, 2048, 1024); (2048, 2048, 4096); (4096, 4096, 2048);
      (4096, 4096, 8192) ]
  in
  let batched =
    Pool.map_list
      (fun (m, n, k) ->
        let s = { Workloads.m; n; k; dtype = Dtype.F16 } in
        let tawa = (batched_timing ~ws:true ~batch:8 s).Launch.tflops in
        let triton = (batched_timing ~ws:false ~batch:8 s).Launch.tflops in
        (Printf.sprintf "%dx%dx%d" m n k, triton, tawa))
      shapes
  in
  pr "%s"
    (Report.render
       ~header:[ "MxNxK"; "Triton"; "Tawa"; "speedup" ]
       (List.map
          (fun (label, triton, tawa) ->
            [ label; Report.f1 triton; Report.f1 tawa; Report.speedup ~over:triton tawa ])
          batched));
  section "Fig. 9 (right): FP16 grouped GEMM, Tawa vs Triton";
  let grouped =
    Pool.map_list
      (fun (label, group) ->
        let tawa = (grouped_timing ~ws:true group).Launch.tflops in
        let triton = (grouped_timing ~ws:false group).Launch.tflops in
        (label, triton, tawa))
      Workloads.paper_groups
  in
  pr "%s"
    (Report.render
       ~header:[ "group"; "Triton"; "Tawa"; "speedup" ]
       (List.map
          (fun (label, triton, tawa) ->
            [ label; Report.f1 triton; Report.f1 tawa; Report.speedup ~over:triton tawa ])
          grouped));
  let table rows =
    Json.List
      (List.map
         (fun (label, triton, tawa) ->
           Json.Obj
             [ ("shape", Json.Str label); ("triton_tflops", Json.Float triton);
               ("tawa_tflops", Json.Float tawa);
               ("speedup", Json.Float (tawa /. triton)) ])
         rows)
  in
  Json.Obj [ ("batched", table batched); ("grouped", table grouped) ]

(* ------------------------------------------------------------------ *)
(* Fig. 10: multi-head attention                                       *)
(* ------------------------------------------------------------------ *)

let fig10_case ~dtype ~causal =
  let fws = Frameworks.all_mha in
  let data =
    Pool.map_list
      (fun len ->
        let shape = Workloads.paper_mha ~dtype ~causal len in
        ( len,
          List.map
            (fun fw ->
              (fw, Option.map (fun t -> t.Launch.tflops) (Frameworks.mha ~cfg fw shape)))
            fws ))
      Workloads.paper_mha_lens
  in
  pr "%s"
    (Report.render
       ~header:("L" :: List.map Frameworks.name fws)
       (List.map
          (fun (len, results) ->
            string_of_int len
            :: List.map
                 (fun (_, r) -> match r with Some v -> Report.f1 v | None -> "fail")
                 results)
          data));
  (* Tawa-vs-FA3 and Tawa-vs-Triton summary at the longest sequence. *)
  let summary =
    match List.assoc_opt 16384 data with
    | None -> []
    | Some results -> (
      let get fw = Option.join (List.assoc_opt fw results) in
      match (get Frameworks.Tawa, get Frameworks.Fa3, get Frameworks.Triton) with
      | Some tw, Some fa, Some tr ->
        pr "L=16384: Tawa/FA3 = %.0f%%, Tawa/Triton = %.2fx\n" (100.0 *. tw /. fa)
          (tw /. tr);
        [ ("tawa_over_fa3", Json.Float (tw /. fa));
          ("tawa_over_triton", Json.Float (tw /. tr)) ]
      | _ -> [])
  in
  Json.Obj
    (( "tflops_rows",
       Json.List
         (List.map
            (fun (len, results) ->
              Json.Obj
                (("L", Json.Int len)
                :: List.map
                     (fun (fw, r) ->
                       ( Frameworks.name fw,
                         match r with Some v -> Json.Float v | None -> Json.Null ))
                     results))
            data) )
    :: summary)

let fig10 () =
  section "Fig. 10a: FP16 MHA non-causal (TFLOPS), B=4, d=128";
  let a = fig10_case ~dtype:Dtype.F16 ~causal:false in
  section "Fig. 10b: FP16 MHA causal";
  let b = fig10_case ~dtype:Dtype.F16 ~causal:true in
  section "Fig. 10c: FP8 MHA non-causal";
  let c = fig10_case ~dtype:Dtype.F8E4M3 ~causal:false in
  section "Fig. 10d: FP8 MHA causal";
  let d = fig10_case ~dtype:Dtype.F8E4M3 ~causal:true in
  Json.Obj
    [ ("fp16_noncausal", a); ("fp16_causal", b); ("fp8_noncausal", c); ("fp8_causal", d) ]

(* ------------------------------------------------------------------ *)
(* Fig. 11: aref depth D x MMA depth P, persistent vs not              *)
(* ------------------------------------------------------------------ *)

let fig11_panel ~persistent =
  let shape = Workloads.paper_gemm 16384 in
  let grid =
    Autotune.dp_grid ~cfg ~tiles:Frameworks.tiles_128x128 ~coop:1 ~persistent shape
      ~max_d:4 ~max_p:3
  in
  let rows =
    List.mapi
      (fun di row ->
        Printf.sprintf "D=%d" (di + 1)
        :: List.map
             (function
               | None -> "infeasible"
               | Some (m : Autotune.measurement) -> Report.f1 m.Autotune.tflops)
             row)
      grid
  in
  let json =
    Json.List
      (List.map
         (fun row ->
           Json.List
             (List.map
                (function
                  | None -> Json.Null
                  | Some (m : Autotune.measurement) -> Json.Float m.Autotune.tflops)
                row))
         grid)
  in
  (Report.render ~header:[ ""; "P=1"; "P=2"; "P=3" ] rows, json)

let fig11 () =
  (* The two panels are independent; the (D, P) points inside each are
     measured by the autotuner. *)
  let panels = Pool.run_all [| (fun () -> fig11_panel ~persistent:false);
                               (fun () -> fig11_panel ~persistent:true) |] in
  section "Fig. 11 (left): non-persistent GEMM K=16384, TFLOPS over (D, P)";
  pr "%s" (fst panels.(0));
  section "Fig. 11 (right): persistent GEMM K=16384, TFLOPS over (D, P)";
  pr "%s" (fst panels.(1));
  Json.Obj [ ("non_persistent", snd panels.(0)); ("persistent", snd panels.(1)) ]

(* ------------------------------------------------------------------ *)
(* Fig. 12: ablation                                                   *)
(* ------------------------------------------------------------------ *)

(* One ablation panel. Each step is a label and the candidates it
   picks from: one for a fixed schedule, several for a tuned step,
   which reports its strict best. The steps are independent
   measurements. *)
let ablation title family steps =
  section title;
  let tflops =
    Array.of_list
      (Pool.map_list
         (fun (_, cands) -> (snd (Autotune.fastest ~cfg family cands)).Launch.tflops)
         steps)
  in
  let baseline = tflops.(0) in
  let labels = List.map fst steps in
  let rows =
    List.mapi
      (fun i label ->
        [ label; Report.f1 tflops.(i);
          (if i = 0 then "1.00x" else Report.speedup ~over:baseline tflops.(i)) ])
      labels
  in
  pr "%s" (Report.render ~header:[ "configuration"; "TFLOPS"; "vs baseline" ] rows);
  Json.List
    (List.mapi
       (fun i label ->
         Json.Obj
           [ ("configuration", Json.Str label); ("tflops", Json.Float tflops.(i));
             ("vs_baseline", Json.Float (tflops.(i) /. baseline)) ])
       labels)

let fig12 () =
  let c = Autotune.candidate in
  let small = Frameworks.tiles_128x128 and large = Frameworks.tiles_128x256 in
  let ws tiles = { (c tiles) with Autotune.aref_depth = 2; mma_depth = 1 } in
  let g =
    ablation "Fig. 12 (left): GEMM ablation, FP16, K=16384"
      (Autotune.Gemm (Workloads.paper_gemm 16384))
      [ ("Triton w/o WS (naive)", [ { (c small) with Autotune.strategy = Flow.Naive } ]);
        ("+Auto WS", [ ws small ]);
        ("+Cooperative WGs, +Large Tile", [ { (ws large) with Autotune.coop = 2 } ]);
        ( "+Persistent Kernel",
          [ { (ws large) with Autotune.coop = 2; persistent = true } ] );
        ("+Better Aref Size (autotuned)", Autotune.gemm_candidates ~dtype:Dtype.F16 ()) ]
  in
  (* The MHA baseline is Triton without any pipelining: loads are
     synchronous TMA waits inside the loop. *)
  let attn = { Kernels.block_m = 128; block_n = 128; block_k = 128 } in
  let coarse d = { (ws attn) with Autotune.aref_depth = d; coarse = true } in
  let m =
    ablation "Fig. 12 (right): MHA ablation, FP16, L=16384"
      (Autotune.Attention (Workloads.paper_mha 16384))
      [ ( "Triton w/o pipelining (sync TMA)",
          [ { (c attn) with Autotune.strategy = Flow.Sync_tma } ] );
        ("+Auto WS", [ ws attn ]);
        ("+Coarse-grained pipeline", [ coarse 2 ]);
        ("+Better Aref Size", List.map coarse [ 2; 3; 4 ]) ]
  in
  Json.Obj [ ("gemm", g); ("mha", m) ]

(* ------------------------------------------------------------------ *)
(* Extra: future-work features (§VI) exercised as ablations            *)
(* ------------------------------------------------------------------ *)

let extra () =
  section "Extra: ping-pong aref protocol (paper SVI, future work)";
  (* Two warp groups alternate producer/consumer roles every iteration
     over two rings; model-check under an adversarial schedule. *)
  let rings = [| Tawa_aref.Ring.create ~depth:2; Tawa_aref.Ring.create ~depth:2 |] in
  let agents = Tawa_aref.Schedule.pingpong_program ~n:64 in
  let state = ref 12345 in
  let choose r =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    r.(!state mod Array.length r)
  in
  (match Tawa_aref.Schedule.run ~rings ~choose agents with
  | Tawa_aref.Schedule.Completed results ->
    List.iter
      (fun (name, got) ->
        pr "  %s: consumed %d tiles (role alternating per iteration)\n" name
          (List.length got))
      results
  | Tawa_aref.Schedule.Deadlock _ -> pr "  DEADLOCK (unexpected)\n"
  | Tawa_aref.Schedule.Error e -> pr "  error: %s\n" e);
  section "Extra: multicast aref (one producer, two consumer rings)";
  (* Modelled at the protocol level (see Tawa_aref.Ring.Multicast tests);
     here we report the SMEM saving of sharing one ring between two
     consumers versus duplicating it. *)
  let tile_bytes = 128 * 64 * 2 in
  List.iter
    (fun d ->
      pr "D=%d: dedicated rings %d KiB, multicast ring %d KiB (saves %d KiB)\n" d
        (2 * d * tile_bytes / 1024)
        (d * tile_bytes / 1024)
        (d * tile_bytes / 1024))
    [ 2; 3; 4 ];
  Json.Null

(* ------------------------------------------------------------------ *)
(* Functional-verification grid: parallel vs sequential, vs reference  *)
(* ------------------------------------------------------------------ *)

(* A grid-scale functional GEMM (4x4 CTAs of 128x128 tiles — far
   beyond the 16x16-tile grids the unit tests could afford before the
   domain pool). Checks (a) the parallel run is bit-identical to the
   sequential one, (b) the simulated output matches the CPU
   reference's tensors — and times both runs. *)
let verify_grid () =
  section "Functional verification: 4x4x1 CTA grid, FP16 GEMM 512x512x128";
  let m = 512 and n = 512 and kk = 128 in
  let kernel = Kernels.gemm ~tiles ~dtype:Dtype.F16 () in
  let compiled = Flow.compile kernel in
  let grid = (m / tiles.Kernels.block_m, n / tiles.Kernels.block_n, 1) in
  let run ~domains =
    let a = Tensor.random ~dtype:Dtype.F16 ~seed:11 [| m; kk |] in
    let b = Tensor.random ~dtype:Dtype.F16 ~seed:12 [| kk; n |] in
    let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
    Pool.set_default_domains (Some domains);
    let t0 = Unix.gettimeofday () in
    let cycles =
      Launch.run_grid_functional ~cfg:Config.functional_test compiled.Flow.program
        ~params:
          [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor c; Sim.Rint m; Sim.Rint n;
            Sim.Rint kk ]
        ~grid
    in
    let dt = Unix.gettimeofday () -. t0 in
    (a, b, c, cycles, dt)
  in
  let domains = Pool.default_domains () in
  let _, _, c_seq, cycles_seq, t_seq = run ~domains:1 in
  let a, b, c_par, cycles_par, t_par = run ~domains in
  Pool.set_default_domains None;
  let bit_identical = Tensor.equal c_seq c_par && cycles_seq = cycles_par in
  let reference = Reference.gemm ~out_dtype:Dtype.F16 a b in
  let rel = Tensor.max_rel_diff c_par reference in
  let pass = bit_identical && rel <= 1e-2 in
  pr "  sequential: %.2fs   x %d domains: %.2fs (%.2fx)\n" t_seq domains t_par
    (t_seq /. t_par);
  pr "  bit-identical par-vs-seq: %b   max rel diff vs reference: %.2e   pass: %b\n"
    bit_identical rel pass;
  Json.Obj
    [ ("workload", Json.Str "gemm fp16 512x512x128, 4x4x1 grid, 128x128 tiles");
      ("domains", Json.Int domains);
      ("sequential_seconds", Json.Float t_seq); ("parallel_seconds", Json.Float t_par);
      ("speedup", Json.Float (t_seq /. t_par));
      ("bit_identical", Json.Bool bit_identical);
      ("max_rel_diff_vs_reference", Json.Float rel); ("pass", Json.Bool pass) ]

(* ------------------------------------------------------------------ *)
(* Simulation-mode columns: functional / timing-only / timing+pool on  *)
(* a pinned representative wave per figure                             *)
(* ------------------------------------------------------------------ *)

(* Full figures are out of reach for functional execution (one
   paper-scale GEMM candidate alone is ~17 GMAC), so each figure's
   mode columns run a pinned representative wave — real buffers, the
   same warp-specialized programs the figure sweeps, and a shrunken SM
   count so one SM's share holds several CTAs — through
   [Launch.estimate_grouped] under three configurations:

     functional     mode=Functional, 1 domain
     timing-only    mode=Timing,     1 domain
     timing + pool  mode=Timing,     domain pool

   All three must agree bit-for-bit on the estimated cycles
   ([outcomes_equal]). The functional pass is the PR4-parity decoded
   baseline — timing-only stream optimizations auto-disable in
   functional mode — so composed_speedup = functional / timing+pool is
   the honest product of both levers on identical simulated work.
   Programs are decoded for both modes before timing starts; the
   passes measure simulation, not compilation. *)
let modes_num_sms = 4

let rep_gemm_items shapes () =
  List.mapi
    (fun i (m, n, kk) ->
      let kernel = Kernels.gemm ~tiles ~dtype:Dtype.F16 () in
      let compiled =
        Flow.compile
          ~options:
            { Flow.default_options with aref_depth = 3; mma_depth = 2; num_consumer_wgs = 1;
              persistent = false; use_coarse = false }
          kernel
      in
      let a = Tensor.random ~dtype:Dtype.F16 ~seed:(41 + i) [| m; kk |] in
      let b = Tensor.random ~dtype:Dtype.F16 ~seed:(53 + i) [| kk; n |] in
      let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
      let grid = (m / tiles.Kernels.block_m, n / tiles.Kernels.block_n, 1) in
      ( compiled.Flow.program,
        [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor c; Sim.Rint m; Sim.Rint n;
          Sim.Rint kk ],
        grid,
        Reference.gemm_flops ~m ~n ~k:kk ))
    shapes

let mode_waves =
  [ ( "fig8",
      ( "fp16 gemm 1024x1024x1024, one 8x8 wave of 128x128 tiles",
        rep_gemm_items [ (1024, 1024, 1024) ] ) );
    ( "fig9",
      ( "grouped fp16 gemms 512^3 + 512x1024x512 + 1024x512x512 + 512x512x1024",
        rep_gemm_items
          [ (512, 512, 512); (512, 1024, 512); (1024, 512, 512);
            (512, 512, 1024) ] ) );
    ( "fig11",
      ( "fp16 gemm 1024x1024x2048, one 8x8 wave of 128x128 tiles",
        rep_gemm_items [ (1024, 1024, 2048) ] ) );
    ( "fig12",
      ( "fp16 gemm 2048x1024x512, 16x8 wave of 128x128 tiles",
        rep_gemm_items [ (2048, 1024, 512) ] ) ) ]

let run_modes name =
  match List.assoc_opt name mode_waves with
  | None -> Json.Null
  | Some (desc, mk_items) ->
    let mcfg = { cfg with Config.num_sms = modes_num_sms } in
    let items = mk_items () in
    (* Warm both per-mode decode-cache entries (the cache key includes
       the execution mode) so every pass times pure simulation. *)
    List.iter
      (fun (p, _, _, _) ->
        ignore
          (Tawa_gpusim.Engine.prepare
             ~cfg:{ mcfg with Config.mode = Config.Functional } p);
        ignore
          (Tawa_gpusim.Engine.prepare
             ~cfg:{ mcfg with Config.mode = Config.Timing } p))
      items;
    let pass ?(repeat = 1) ~mode ~domains () =
      Pool.set_default_domains domains;
      let best = ref infinity and cycles = ref Float.nan in
      for _ = 1 to repeat do
        let t0 = Unix.gettimeofday () in
        let t = Launch.estimate_grouped ~cfg:{ mcfg with Config.mode = mode } items in
        let dt = Unix.gettimeofday () -. t0 in
        if dt < !best then best := dt;
        cycles := t.Launch.cycles
      done;
      Pool.set_default_domains None;
      (!best, !cycles)
    in
    let t_fun, c_fun = pass ~mode:Config.Functional ~domains:(Some 1) () in
    let t_tim, c_tim = pass ~repeat:5 ~mode:Config.Timing ~domains:(Some 1) () in
    let t_pool, c_pool = pass ~repeat:5 ~mode:Config.Timing ~domains:None () in
    let equal = c_fun = c_tim && c_tim = c_pool in
    let sp a b = if b > 0.0 then a /. b else 1.0 in
    pr "  mode passes (%s; %d SMs):\n" desc modes_num_sms;
    pr "    functional     %9.4fs\n" t_fun;
    pr "    timing-only    %9.4fs  (%8.1fx)\n" t_tim (sp t_fun t_tim);
    pr "    timing + pool  %9.4fs  (%8.1fx composed)\n" t_pool (sp t_fun t_pool);
    pr "    cycles bit-identical across all three: %b\n" equal;
    Json.Obj
      [ ("workload", Json.Str desc);
        ("num_sms", Json.Int modes_num_sms);
        ("functional_seconds", Json.Float t_fun);
        ("timing_seconds", Json.Float t_tim);
        ("timing_pool_seconds", Json.Float t_pool);
        ("cycles", Json.Float c_pool);
        ("outcomes_equal", Json.Bool equal);
        ("speedup_timing", Json.Float (sp t_fun t_tim));
        ("speedup_pool", Json.Float (sp t_tim t_pool));
        ("composed_speedup", Json.Float (sp t_fun t_pool)) ]

(* ---------------------- static occupancy -------------------------- *)

(* Statcheck's static occupancy verdict for one representative kernel
   per figure family, recorded alongside the measured results so the
   trajectory ties the static model to what actually ran. Compiles are
   served by the flow cache, so this costs microseconds. *)
let occupancy_json (name, compiled) =
  let r =
    Tawa_analysis.Statcheck.occupancy_report ~program:compiled.Flow.program
      compiled.Flow.transformed
  in
  let verdict =
    match r.Tawa_analysis.Statcheck.verdict with
    | Tawa_machine.Resources.Feasible _ -> Json.Obj [ ("feasible", Json.Bool true) ]
    | Tawa_machine.Resources.Infeasible why ->
      Json.Obj [ ("feasible", Json.Bool false); ("reason", Json.Str why) ]
  in
  ( name,
    Json.Obj
      [ ("kernel", Json.Str r.Tawa_analysis.Statcheck.kernel_name);
        ("verdict", verdict);
        ("ctas_per_sm", Json.Int r.Tawa_analysis.Statcheck.ctas_per_sm);
        ("limiting", Json.Str r.Tawa_analysis.Statcheck.limiting);
        ("smem_bytes", Json.Int r.Tawa_analysis.Statcheck.smem_bytes);
        ("total_regs", Json.Int r.Tawa_analysis.Statcheck.total_regs) ] )

let static_occupancy () =
  let opts ?(d = 2) ?(p = 2) ?(coop = 1) ?(persistent = false) () =
    { Flow.default_options with aref_depth = d; mma_depth = p; num_consumer_wgs = coop; persistent;
      use_coarse = false }
  in
  let tiles = Frameworks.tiles_128x128 in
  Json.Obj
    (List.map occupancy_json
       [ ("gemm", Flow.compile ~options:(opts ~d:3 ()) (Kernels.gemm ~tiles ()));
         ( "batched_gemm",
           Flow.compile ~options:(opts ~d:3 ()) (Kernels.batched_gemm ~tiles ()) );
         ( "attention",
           Flow.compile ~options:(opts ())
             (Kernels.attention ~block_m:128 ~block_n:128 ~head_dim:128 ()) );
         ( "persistent_gemm",
           Flow.compile ~options:(opts ~d:3 ~persistent:true ())
             (Kernels.gemm ~tiles ()) );
         ( "coop_gemm",
           Flow.compile ~options:(opts ~coop:2 ()) (Kernels.gemm ~tiles ()) ) ])

(* --------------------------- autotune ----------------------------- *)

(* The occupancy-pruned search (PR8) on one figure shape per family,
   reported against the hand-tuned expert schedule. Runs once (timing
   the search in every figure pass would measure the search, not the
   simulator). *)
let autotune_one (name, fam) =
  let r = Autotune.search fam in
  let s = r.Autotune.stats in
  let expert = Autotune.measure fam (Autotune.expert fam) in
  let best = r.Autotune.best in
  let ratio =
    if expert.Autotune.tflops > 0.0 then best.Autotune.tflops /. expert.Autotune.tflops
    else 0.0
  in
  let rate =
    if s.Autotune.total = 0 then 0.0
    else float_of_int s.Autotune.pruned /. float_of_int s.Autotune.total
  in
  pr "  %-14s %3d cands, %3d pruned (%4.1f%%), %3d measured, %5.2fs%s\n" name
    s.Autotune.total s.Autotune.pruned (100.0 *. rate) s.Autotune.measured
    s.Autotune.wall_seconds
    (if s.Autotune.prune_fallback then "  [prune fallback]" else "");
  pr "    best   %-40s %8.1f TFLOPS\n"
    (Autotune.candidate_to_string best.Autotune.candidate)
    best.Autotune.tflops;
  pr "    expert %-40s %8.1f TFLOPS   tuned/expert %.3fx\n"
    (Autotune.candidate_to_string expert.Autotune.candidate)
    expert.Autotune.tflops ratio;
  ( name,
    Json.Obj
      [ ("candidates", Json.Int s.Autotune.total);
        ("pruned", Json.Int s.Autotune.pruned);
        ("prune_rate", Json.Float rate);
        ("measured", Json.Int s.Autotune.measured);
        ("prune_fallback", Json.Bool s.Autotune.prune_fallback);
        ("wall_seconds", Json.Float s.Autotune.wall_seconds);
        ("best", Json.Str (Autotune.candidate_to_string best.Autotune.candidate));
        ("best_tflops", Json.Float best.Autotune.tflops);
        ( "expert",
          Json.Str (Autotune.candidate_to_string expert.Autotune.candidate) );
        ("expert_tflops", Json.Float expert.Autotune.tflops);
        ("tuned_vs_expert", Json.Float ratio) ] )

let autotune_report () =
  section "Autotune: occupancy-pruned search vs expert schedule";
  Json.Obj
    (List.map autotune_one
       [ ("gemm_fp16", Autotune.Gemm (Workloads.paper_gemm 4096));
         ("gemm_fp8", Autotune.Gemm (Workloads.paper_gemm ~dtype:Dtype.F8E4M3 4096));
         ("mha_fp16", Autotune.Attention (Workloads.paper_mha 4096)) ])

(* ------------------------------------------------------------------ *)
(* Task-graph execution: wave overlap + decode-once replay             *)
(* ------------------------------------------------------------------ *)

(* Each demo graph runs twice from bit-identical inputs: through the
   wave scheduler (instantiate once, replay N times) and through the
   serialized one-launch-per-node path. Reported per demo: the
   simulated wave-overlap speedup (launch overheads amortized per wave,
   CTAs of a wave packed into the same SM rounds — deterministic, from
   the same cost model as the figures), the measured cold-instantiate
   vs warm-replay wall clock (cold pays compile + decode + footprint
   for every node; replay pays none), honest wall-clock for both
   execution paths on this host, and the bit-identity verdict. The
   domain pool is pinned to >= 2 so wave batches actually share a
   dispatch. *)
let graph_one (name, title, build) =
  let module Graph = Tawa_graph.Graph in
  let module Gallery = Tawa_graph.Gallery in
  Flow.clear_cache ();
  Tawa_gpusim.Engine.clear_decode_cache ();
  let t0 = Unix.gettimeofday () in
  let demo = build () in
  let inst = Graph.instantiate demo.Gallery.d_graph in
  let first = Graph.replay inst in
  let cold = Unix.gettimeofday () -. t0 in
  let replays = 5 in
  let warm =
    List.fold_left
      (fun acc (r : Graph.run) -> Float.min acc r.Graph.r_seconds)
      first.Graph.r_seconds
      (List.init replays (fun _ -> Graph.replay inst))
  in
  let demo_s = build () in
  let inst_s = Graph.instantiate demo_s.Gallery.d_graph in
  let serial = Graph.run_serial inst_s in
  let outcomes_equal =
    List.for_all2
      (fun (_, got) (_, want) -> Tensor.equal got want)
      demo.Gallery.d_outputs demo_s.Gallery.d_outputs
    && Array.for_all2
         (fun (a : Graph.node_result) (b : Graph.node_result) ->
           a.Graph.nr_cycles = b.Graph.nr_cycles
           && a.Graph.nr_cta_cycles = b.Graph.nr_cta_cycles)
         first.Graph.r_nodes serial.Graph.r_nodes
  in
  let model = Graph.overlap_model inst first in
  pr "  %-10s %d nodes / %d waves   overlap %.2fx   replay warm/cold %.2fx   %s\n"
    name
    (Graph.num_nodes demo.Gallery.d_graph)
    (Graph.num_waves demo.Gallery.d_graph)
    model.Graph.m_speedup
    (if warm > 0.0 then cold /. warm else 1.0)
    (if outcomes_equal then "bit-identical" else "DIVERGES");
  ( name,
    Json.Obj
      [ ("title", Json.Str title);
        ("nodes", Json.Int (Graph.num_nodes demo.Gallery.d_graph));
        ("waves", Json.Int (Graph.num_waves demo.Gallery.d_graph));
        ("serial_cycles", Json.Float model.Graph.m_serial_cycles);
        ("graph_cycles", Json.Float model.Graph.m_graph_cycles);
        ("simulated_speedup", Json.Float model.Graph.m_speedup);
        ("cold_instantiate_seconds", Json.Float cold);
        ("warm_replay_seconds", Json.Float warm);
        ( "replay_speedup",
          Json.Float (if warm > 0.0 then cold /. warm else 1.0) );
        ("serial_wall_seconds", Json.Float serial.Graph.r_seconds);
        ("graph_wall_seconds", Json.Float first.Graph.r_seconds);
        ( "wall_speedup",
          Json.Float
            (if first.Graph.r_seconds > 0.0 then
               serial.Graph.r_seconds /. first.Graph.r_seconds
             else 1.0) );
        ("outcomes_equal", Json.Bool outcomes_equal);
        ( "per_wave",
          Json.List
            (Array.to_list
               (Array.map
                  (fun (w : Graph.wave_model) ->
                    Json.Obj
                      [ ("wave", Json.Int w.Graph.wm_wave);
                        ("ctas", Json.Int w.Graph.wm_ctas);
                        ("sm_rounds", Json.Int w.Graph.wm_sm_waves);
                        ("occupancy", Json.Float w.Graph.wm_occupancy) ])
                  model.Graph.m_waves)) ) ] )

let graph_report () =
  section "Task graphs: wave overlap + decode-once replay";
  let saved = Pool.default_domains () in
  Pool.set_default_domains (Some (max 2 saved));
  let domains = Pool.default_domains () in
  let demos = List.map graph_one Tawa_graph.Gallery.all in
  Pool.set_default_domains (Some saved);
  Json.Obj (("pool_domains", Json.Int domains) :: demos)

(* ------------------------------------------------------------------ *)

let all_figures =
  [ ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("fig12", fig12); ("extra", extra) ]

(* In --json mode every figure runs twice: on 1 domain (silent) and on
   the full domain pool for the reported tables. Caches are cleared
   before each pass (and stay enabled), so every pass pays one
   compile+decode per distinct program. *)
type fig_result = {
  r_name : string;
  r_dec : float; (* 1 domain *)
  r_par : float; (* domain pool *)
  r_dec_instr : int; (* instructions retired by the 1-domain pass *)
  r_cache : Tawa_machine.Progcache.stats;
  r_data : Json.t;
  r_modes : Json.t; (* three simulation-mode passes, Null if no wave *)
}

let no_stats = { Tawa_machine.Progcache.hits = 0; misses = 0; evictions = 0 }

let timed_pass ~domains ~silent f =
  Flow.clear_cache ();
  Tawa_gpusim.Engine.clear_decode_cache ();
  Pool.set_default_domains domains;
  Tawa_gpusim.Engine.reset_instructions ();
  quiet := silent;
  let t0 = Unix.gettimeofday () in
  let data = f () in
  let dt = Unix.gettimeofday () -. t0 in
  quiet := false;
  Pool.set_default_domains None;
  (dt, Tawa_gpusim.Engine.instructions_retired (), data)

let run_figure ~json (name, f) =
  if not json then begin
    ignore (f ());
    { r_name = name; r_dec = 0.0; r_par = 0.0; r_dec_instr = 0;
      r_cache = no_stats; r_data = Json.Null; r_modes = Json.Null }
  end
  else begin
    let r_dec, r_dec_instr, _ = timed_pass ~domains:(Some 1) ~silent:true f in
    let r_par, _, data = timed_pass ~domains:None ~silent:false f in
    let r_modes = run_modes name in
    { r_name = name; r_dec; r_par; r_dec_instr;
      r_cache = Flow.cache_stats (); r_data = data; r_modes }
  end

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let json = ref None and names = ref [] and domains = ref None in
  let rec parse = function
    | [] -> ()
    | "--json" :: rest -> (
      json := Some "BENCH_PR9.json";
      match rest with
      | path :: rest' when String.length path > 0 && path.[0] <> '-' && not (List.mem_assoc path all_figures) ->
        json := Some path;
        parse rest'
      | _ -> parse rest)
    | "--domains" :: n :: rest ->
      domains := int_of_string_opt n;
      parse rest
    | "--seq" :: rest ->
      domains := Some 1;
      parse rest
    | "all" :: rest -> parse rest
    | name :: rest ->
      if List.mem_assoc name all_figures then names := name :: !names
      else Printf.eprintf "unknown figure or flag %S (ignored)\n" name;
      parse rest
  in
  parse args;
  Pool.set_default_domains !domains;
  let selected =
    match List.rev !names with
    | [] -> all_figures
    | ns -> List.map (fun n -> (n, List.assoc n all_figures)) ns
  in
  let t0 = Unix.gettimeofday () in
  let results = List.map (run_figure ~json:(!json <> None)) selected in
  match !json with
  | None -> pr "\n[bench completed in %.1fs]\n" (Unix.gettimeofday () -. t0)
  | Some path ->
    let verify = verify_grid () in
    let tune = autotune_report () in
    let graph = graph_report () in
    let cache_stats =
      List.fold_left
        (fun acc r ->
          { Tawa_machine.Progcache.hits = acc.Tawa_machine.Progcache.hits + r.r_cache.Tawa_machine.Progcache.hits;
            misses = acc.Tawa_machine.Progcache.misses + r.r_cache.Tawa_machine.Progcache.misses;
            evictions =
              acc.Tawa_machine.Progcache.evictions + r.r_cache.Tawa_machine.Progcache.evictions })
        no_stats results
    in
    let dec_total = List.fold_left (fun acc r -> acc +. r.r_dec) 0.0 results in
    let par_total = List.fold_left (fun acc r -> acc +. r.r_par) 0.0 results in
    let ips i dt = if dt > 0.0 then Float.of_int i /. dt else 0.0 in
    let doc =
      Json.Obj
        [ ("schema", Json.Str "tawa-bench-trajectory/v1");
          ("pr", Json.Int 9);
          ( "engine",
            Json.Str
              "decode-once closure-compiled CTA engine + event-driven scheduler, with \
               timing-only stream optimization and vectorized tile ops (over the \
               domain pool and compile cache)" );
          ( "host",
            Json.Obj
              [ ("cores", Json.Int (Domain.recommended_domain_count ()));
                ("domains", Json.Int (Pool.default_domains ())) ] );
          ( "figures",
            Json.List
              (List.map
                 (fun r ->
                   Json.Obj
                     [ ("name", Json.Str r.r_name);
                       ("decoded_seconds", Json.Float r.r_dec);
                       ("decoded_parallel_seconds", Json.Float r.r_par);
                       ( "decoded_instructions_per_sec",
                         Json.Float (ips r.r_dec_instr r.r_dec) );
                       ( "compile_cache",
                         Json.Obj
                           [ ("hits", Json.Int r.r_cache.Tawa_machine.Progcache.hits);
                             ("misses", Json.Int r.r_cache.Tawa_machine.Progcache.misses);
                             ("evictions", Json.Int r.r_cache.Tawa_machine.Progcache.evictions) ] );
                       ("modes", r.r_modes);
                       ("data", r.r_data) ])
                 results) );
          ("functional_verification", verify);
          ("static_occupancy", static_occupancy ());
          ("autotune", tune);
          ("graph", graph);
          ( "compile_cache",
            Json.Obj
              [ ("hits", Json.Int cache_stats.Tawa_machine.Progcache.hits);
                ("misses", Json.Int cache_stats.Tawa_machine.Progcache.misses);
                ("evictions", Json.Int cache_stats.Tawa_machine.Progcache.evictions) ] );
          (* Registry snapshot: progcache/pool gauges, pass timers. *)
          ("telemetry", Tawa_obs.Registry.to_json ());
          ( "totals",
            Json.Obj
              [ ("decoded_seconds", Json.Float dec_total);
                ("decoded_parallel_seconds", Json.Float par_total) ] ) ]
    in
    Json.to_file path doc;
    pr "\n[bench completed in %.1fs; trajectory written to %s]\n"
      (Unix.gettimeofday () -. t0)
      path
