(* Benchmark harness: regenerates every table/figure of the paper's
   evaluation (§V) on the simulated H100.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- fig8         -- one figure
     dune exec bench/main.exe -- fig8 fig10   -- a subset
     (figures: fig8 fig9 fig10 fig11 fig12 extra; no name, or `all`,
     runs every one)

   Sweep points (frameworks x shapes) run on the domain pool, sized by
   TAWA_DOMAINS; each point's own simulation is single-threaded, so
   results are identical for any domain count. Absolute TFLOPS come
   from the calibrated cost model; the claims checked in EXPERIMENTS.md
   are the paper's *shapes*: orderings, speedup factors, crossovers,
   feasibility holes. claims.ml asserts several of them on this
   program's output. Every Fig. 8, 10 and 12 cell is an autotune
   candidate timed through [Autotune.time]. *)

open Tawa_tensor
open Tawa_frontend
open Tawa_core
open Tawa_baselines
open Tawa_gpusim
module Pool = Tawa_pool.Pool

let cfg = Config.h100

let pr fmt = Printf.ksprintf (fun s -> print_string s; flush stdout) fmt

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
       (List.map (fun (fw, g) -> Printf.sprintf "%s %.2fx" (Frameworks.name fw) g) avgs))

let fig8 () =
  section "Fig. 8a: FP16 GEMM (TFLOPS), M=N=8192";
  fig8_precision Dtype.F16;
  section "Fig. 8b: FP8 GEMM (TFLOPS), M=N=8192";
  fig8_precision Dtype.F8E4M3

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
          grouped))

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
  match List.assoc_opt 16384 data with
  | None -> ()
  | Some results -> (
    let get fw = Option.join (List.assoc_opt fw results) in
    match (get Frameworks.Tawa, get Frameworks.Fa3, get Frameworks.Triton) with
    | Some tw, Some fa, Some tr ->
      pr "L=16384: Tawa/FA3 = %.0f%%, Tawa/Triton = %.2fx\n" (100.0 *. tw /. fa)
        (tw /. tr)
    | _ -> ())

let fig10 () =
  section "Fig. 10a: FP16 MHA non-causal (TFLOPS), B=4, d=128";
  fig10_case ~dtype:Dtype.F16 ~causal:false;
  section "Fig. 10b: FP16 MHA causal";
  fig10_case ~dtype:Dtype.F16 ~causal:true;
  section "Fig. 10c: FP8 MHA non-causal";
  fig10_case ~dtype:Dtype.F8E4M3 ~causal:false;
  section "Fig. 10d: FP8 MHA causal";
  fig10_case ~dtype:Dtype.F8E4M3 ~causal:true

(* ------------------------------------------------------------------ *)
(* Fig. 11: aref depth D x MMA depth P, persistent vs not              *)
(* ------------------------------------------------------------------ *)

let fig11_panel ~persistent =
  let shape = Workloads.paper_gemm 16384 in
  let grid =
    Autotune.dp_grid ~cfg ~tiles:Frameworks.tiles_128x128 ~coop:1 ~persistent shape
      ~max_d:4 ~max_p:3
  in
  Report.render ~header:[ ""; "P=1"; "P=2"; "P=3" ]
    (List.mapi
       (fun di row ->
         Printf.sprintf "D=%d" (di + 1)
         :: List.map
              (function
                | None -> "infeasible"
                | Some (m : Autotune.measurement) -> Report.f1 m.Autotune.tflops)
              row)
       grid)

let fig11 () =
  (* The two panels are independent; the (D, P) points inside each are
     measured by the autotuner. *)
  let panels = Pool.run_all [| (fun () -> fig11_panel ~persistent:false);
                               (fun () -> fig11_panel ~persistent:true) |] in
  section "Fig. 11 (left): non-persistent GEMM K=16384, TFLOPS over (D, P)";
  pr "%s" panels.(0);
  section "Fig. 11 (right): persistent GEMM K=16384, TFLOPS over (D, P)";
  pr "%s" panels.(1)

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
  pr "%s"
    (Report.render ~header:[ "configuration"; "TFLOPS"; "vs baseline" ]
       (List.mapi
          (fun i (label, _) ->
            [ label; Report.f1 tflops.(i);
              (if i = 0 then "1.00x" else Report.speedup ~over:baseline tflops.(i)) ])
          steps))

let fig12 () =
  let c = Autotune.candidate in
  let small = Frameworks.tiles_128x128 and large = Frameworks.tiles_128x256 in
  let ws tiles = { (c tiles) with Autotune.aref_depth = 2; mma_depth = 1 } in
  ablation "Fig. 12 (left): GEMM ablation, FP16, K=16384"
    (Autotune.Gemm (Workloads.paper_gemm 16384))
    [ ("Triton w/o WS (naive)", [ { (c small) with Autotune.strategy = Flow.Naive } ]);
      ("+Auto WS", [ ws small ]);
      ("+Cooperative WGs, +Large Tile", [ { (ws large) with Autotune.coop = 2 } ]);
      ( "+Persistent Kernel",
        [ { (ws large) with Autotune.coop = 2; persistent = true } ] );
      ("+Better Aref Size (autotuned)", Autotune.gemm_candidates ~dtype:Dtype.F16 ()) ];
  (* The MHA baseline is Triton without any pipelining: loads are
     synchronous TMA waits inside the loop. *)
  let attn = { Kernels.block_m = 128; block_n = 128; block_k = 128 } in
  let coarse d = { (ws attn) with Autotune.aref_depth = d; coarse = true } in
  ablation "Fig. 12 (right): MHA ablation, FP16, L=16384"
    (Autotune.Attention (Workloads.paper_mha 16384))
    [ ( "Triton w/o pipelining (sync TMA)",
        [ { (c attn) with Autotune.strategy = Flow.Sync_tma } ] );
      ("+Auto WS", [ ws attn ]);
      ("+Coarse-grained pipeline", [ coarse 2 ]);
      ("+Better Aref Size", List.map coarse [ 2; 3; 4 ]) ]

(* ------------------------------------------------------------------ *)
(* Extra: future-work features (§VI) exercised as ablations            *)
(* ------------------------------------------------------------------ *)

let extra () =
  section "Extra: ping-pong aref protocol (paper SVI, future work)";
  (* Two warp groups alternate producer/consumer roles every iteration
     over two rings; model-check under an adversarial schedule. *)
  let ring () = Tawa_aref.Schedule.Ring (Tawa_aref.Ring.create ~depth:2) in
  let rings = [| ring (); ring () |] in
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
  | Tawa_aref.Schedule.Error (_, e) -> pr "  error: %s\n" e);
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
    [ 2; 3; 4 ]

(* ------------------------------------------------------------------ *)

let figures =
  [ ("fig8", fig8); ("fig9", fig9); ("fig10", fig10); ("fig11", fig11);
    ("fig12", fig12); ("extra", extra) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  List.iter
    (fun a ->
      if a <> "all" && not (List.mem_assoc a figures) then
        Printf.eprintf "unknown figure %S (ignored)\n" a)
    args;
  let selected =
    match List.filter (fun a -> List.mem_assoc a figures) args with
    | [] -> figures
    | names -> List.map (fun n -> (n, List.assoc n figures)) names
  in
  let t0 = Unix.gettimeofday () in
  List.iter (fun (_, f) -> f ()) selected;
  pr "\n[bench completed in %.1fs]\n" (Unix.gettimeofday () -. t0)
