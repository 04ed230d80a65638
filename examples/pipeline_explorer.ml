(* Pipeline explorer: renders the warp-specialized execution timeline
   (the paper's Fig. 5c) as an ASCII Gantt chart from the deep
   profiler's recorded events, then sweeps the (D, P) hyperparameter
   grid of Fig. 11.

     dune exec examples/pipeline_explorer.exe *)

open Tawa_frontend
open Tawa_core
open Tawa_gpusim
module Isa = Tawa_machine.Isa
module Prof = Tawa_obs.Prof

(* Gantt glyph of a retired instruction on its warp group's lane. *)
let glyph_of_instr : Isa.instr -> char = function
  | Isa.Wgmma _ | Isa.Wgmma_commit | Isa.Wgmma_wait _ -> '#'
  | Isa.Tma_load _ | Isa.Cp_async _ -> '='
  | Isa.Mbar_wait _ | Isa.Cp_wait_ring _ | Isa.Fence -> ' '
  | _ -> '+'

(* Where intervals share a column, the more informative glyph wins. *)
let rank = function '#' -> 5 | '=' -> 4 | '+' -> 3 | '-' -> 2 | ' ' -> 1 | _ -> 0

let render_timeline lanes ~t1 ~width =
  let names = List.sort_uniq compare (List.map (fun (l, _, _, _) -> l) lanes) in
  let scale = Float.of_int width /. t1 in
  List.iter
    (fun name ->
      let row = Bytes.make width '.' in
      List.iter
        (fun (l, s, e, glyph) ->
          if l = name then
            let c0 = max 0 (int_of_float (s *. scale)) in
            let c1 = min (width - 1) (int_of_float (e *. scale)) in
            for c = c0 to c1 do
              if rank glyph > rank (Bytes.get row c) then Bytes.set row c glyph
            done)
        lanes;
      Printf.printf "  %-18s |%s|\n" name (Bytes.to_string row))
    names

(* Run one CTA of an 8192x8192xK GEMM with the profiler's recorder
   attached, and turn its events into Gantt lanes: one per warp group
   (its retired ops) and, per channel, a put lane (arrival issued ->
   phase complete: a TMA copy in flight on an aref.full slot) and a
   wait lane (a warp group blocked on the slot). *)
let traced_cta (program : Isa.program) ~k =
  let recorder = Prof.create () in
  let outcome =
    Engine.run_cta ~recorder ~cfg:Config.h100 ~program
      ~params:[ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint 8192; Sim.Rint 8192; Sim.Rint k ]
      ~num_programs:[| 64; 64; 1 |] ~pop_global:Launch.no_queue ()
  in
  let glyph wg pc =
    String.make 1 (glyph_of_instr (List.nth program.Isa.streams wg).Isa.instrs.(pc))
  in
  let ops =
    Prof.op_intervals recorder ~wg_label:(Sim.wg_label_of ~program) ~pc_label:glyph
    |> List.map (fun (lane, t0, t1, g) -> (lane, t0, t1, g.[0]))
  in
  let chans =
    Prof.channel_intervals recorder ~chan_label:(Sim.chan_label_of ~program)
    |> List.map (fun (lane, t0, t1, label) ->
           let chan = String.sub lane 6 (String.length lane - 6) (* "chan: " *) in
           if String.starts_with ~prefix:"put" label then (chan ^ " put", t0, t1, '=')
           else (chan ^ " wait", t0, t1, '-'))
  in
  (outcome, ops @ chans)

let legend =
  "'#' WGMMA issue..wait, '=' TMA copy (issue on a WG lane, in flight on a put\n\
   lane), '+' CUDA-core work, '-' waiting on a slot, blank: warp group blocked."

let () =
  print_endline "== Warp-specialized GEMM timeline (Fig. 5c) ==\n";
  let tiles = { Kernels.block_m = 128; block_n = 128; block_k = 64 } in
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 3; mma_depth = 2; num_consumer_wgs = 1; persistent = false;
          use_coarse = false }
      (Kernels.gemm ~tiles ())
  in
  let k = 16 * 64 in
  let outcome, lanes = traced_cta compiled.Flow.program ~k in
  Printf.printf "One CTA, K=%d (16 iterations), D=3, P=2.\n%s\n\n" k legend;
  render_timeline lanes ~t1:outcome.Sim.cycles ~width:100;
  Printf.printf
    "\nTMA copies run ahead of the tensor core from the first cycles: the\n\
     producer warp group keeps D=3 slots in flight while WGMMA drains them.\n";
  Printf.printf "Total: %.0f cycles; tensor core busy %.0f%% of the time.\n"
    outcome.Sim.cycles
    (100.0 *. outcome.Sim.stats.Sim.tc_busy /. outcome.Sim.cycles);

  (* The same kernel WITHOUT warp specialization, for contrast. *)
  print_endline "\n== Same GEMM without warp specialization (synchronous TMA) ==\n";
  let sync =
    Flow.compile
      ~options:{ Flow.default_options with strategy = Flow.Sync_tma }
      (Kernels.gemm ~tiles ())
  in
  let outcome2, lanes2 = traced_cta sync.Flow.program ~k in
  render_timeline lanes2 ~t1:outcome2.Sim.cycles ~width:100;
  Printf.printf "\nTotal: %.0f cycles (%.2fx slower); tensor core busy %.0f%%.\n"
    outcome2.Sim.cycles
    (outcome2.Sim.cycles /. outcome.Sim.cycles)
    (100.0 *. outcome2.Sim.stats.Sim.tc_busy /. outcome2.Sim.cycles);

  (* Fig. 11-style sweep. *)
  print_endline "\n== Hyperparameter sweep: aref depth D x MMA depth P (persistent) ==\n";
  let shape = Workloads.paper_gemm 16384 in
  let grid =
    Autotune.dp_grid ~tiles ~coop:1 ~persistent:true shape ~max_d:4 ~max_p:3
  in
  Printf.printf "  %-5s %10s %10s %10s\n" "" "P=1" "P=2" "P=3";
  List.iteri
    (fun di row ->
      Printf.printf "  D=%-3d" (di + 1);
      List.iter
        (function
          | None -> Printf.printf " %10s" "infeas"
          | Some (m : Autotune.measurement) ->
            Printf.printf " %10.1f" m.Autotune.tflops)
        row;
      print_newline ())
    grid;
  print_endline
    "\nDeeper rings buy prefetch slack; P=2 overlaps address math with MMA;\n\
     P=3 pays register pressure (the paper's over-pipelining trade-off)."
