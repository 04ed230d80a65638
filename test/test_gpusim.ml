(* Tests for simulator internals: cost accounting, async engine timing,
   time-warp waits, fences, the persistent work queue, cp.async rings,
   trace collection, and the launch/extrapolation model. Hand-built programs run on the
   tree-walking oracle ([Oracle]), whose interpreter state (registers,
   clocks, barriers) the checks read directly; the differential suites
   pin the decoded engine to it. *)

open Tawa_tensor
open Tawa_ir
open Tawa_machine
open Tawa_gpusim

let mk_program ?(allocs = []) ?(num_mbarriers = 0) ?(arrive = [||]) ?(num_rings = 0)
    ?(persistent = false) ?(param_tys = []) streams =
  {
    Isa.name = "t";
    param_tys;
    streams;
    allocs;
    num_mbarriers;
    mbar_arrive_counts = arrive;
    mbar_resettable = Array.map (fun _ -> true) arrive;
    num_rings;
    persistent;
    grid_axes = 3;
    prov = Isa.no_prov;
  }

let stream ?(role = Op.Consumer) ?(coop = 1) instrs =
  { Isa.role; coop; instrs = Array.of_list instrs }

let cfg = Config.h100

let run_program ?(params = []) ?(pop = Launch.no_queue) program =
  let cta =
    Oracle.create ~cfg ~program ~params ~num_programs:[| 4; 4; 1 |] ~pop_global:pop
      ()
  in
  (Oracle.run cta, cta)

(* ------------------------------------------------------------------ *)
(* Scalar execution + costs                                            *)
(* ------------------------------------------------------------------ *)

let test_scalar_alu () =
  let p =
    mk_program
      [ stream
          [ Isa.Mov { dst = 0; src = Isa.Imm 5 };
            Isa.Alu { op = Op.Add; dst = 1; a = Isa.Reg 0; b = Isa.Imm 3 };
            Isa.Alu { op = Op.Mul; dst = 2; a = Isa.Reg 1; b = Isa.Reg 1 };
            Isa.Exit ] ]
  in
  let o, cta = run_program p in
  Alcotest.(check bool) "r2 = 64" true (Oracle.reg_read cta.Oracle.wgs.(0) 2 = Sim.Rint 64);
  (* Three scalar ops at scalar_cycles each. *)
  Alcotest.(check (float 1e-9)) "cycles" (3.0 *. cfg.Config.scalar_cycles) o.Sim.cycles

let test_branching_loop () =
  (* r0 counts 0..9 via a machine-level loop. *)
  let p =
    mk_program
      [ stream
          [ (* 0 *) Isa.Mov { dst = 0; src = Isa.Imm 0 };
            (* 1 *) Isa.Cmp { op = Op.Lt; dst = 1; a = Isa.Reg 0; b = Isa.Imm 10 };
            (* 2 *) Isa.Brz { cond = Isa.Reg 1; target = 5 };
            (* 3 *) Isa.Alu { op = Op.Add; dst = 0; a = Isa.Reg 0; b = Isa.Imm 1 };
            (* 4 *) Isa.Bra { target = 1 };
            (* 5 *) Isa.Exit ] ]
  in
  let _, cta = run_program p in
  Alcotest.(check bool) "loop counted to 10" true (Oracle.reg_read cta.Oracle.wgs.(0) 0 = Sim.Rint 10)

let test_div_by_zero_reported () =
  let p =
    mk_program
      [ stream [ Isa.Alu { op = Op.Div; dst = 0; a = Isa.Imm 1; b = Isa.Imm 0 }; Isa.Exit ] ]
  in
  Alcotest.(check bool) "div by zero" true
    (try
       ignore (run_program p);
       false
     with Sim.Sim_error msg -> Astring.String.is_infix ~affix:"div" msg)

(* ------------------------------------------------------------------ *)
(* Async engines and time-warp                                         *)
(* ------------------------------------------------------------------ *)

let test_tma_engine_serializes () =
  (* Two loads back to back: the engine is busy bytes/bw each; the
     second completes after the first. *)
  let rows = 64 and cols = 64 in
  let bytes = Float.of_int (rows * cols * 2) in
  let p =
    mk_program ~num_mbarriers:2 ~arrive:[| 1; 1 |]
      ~allocs:[ { Isa.alloc_id = 0; slots = 2; bytes_per_slot = rows * cols * 2; label = "t" } ]
      ~param_tys:[ Tawa_ir.Types.ptr Dtype.F16 ]
      [ stream
          [ Isa.Mkdesc { dst = 1; ptr = Isa.Reg 0; sizes = []; strides = []; dtype = Dtype.F16 };
            Isa.Tma_load
              { desc = Isa.Reg 1; offs = [ Isa.Imm 0; Isa.Imm 0 ];
                dst = { Isa.alloc = 0; slot = Isa.Imm 0 }; rows; cols; dtype = Dtype.F16;
                full = { Isa.base = 0; index = Isa.Imm 0 } };
            Isa.Tma_load
              { desc = Isa.Reg 1; offs = [ Isa.Imm 0; Isa.Imm 0 ];
                dst = { Isa.alloc = 0; slot = Isa.Imm 1 }; rows; cols; dtype = Dtype.F16;
                full = { Isa.base = 1; index = Isa.Imm 0 } };
            (* Wait for the second: completion ~ 2*(bytes/bw) + latency. *)
            Isa.Mbar_wait { bar = { Isa.base = 1; index = Isa.Imm 0 }; target = Isa.Imm 1 };
            Isa.Exit ] ]
  in
  let o, _ = run_program ~params:[ Sim.Rnone ] p in
  (* The first issue starts the engine; the second issue's WG-side cost
     overlaps the engine's busy window, so it does not extend the
     critical path. *)
  let expect =
    20.0 (* mkdesc *)
    +. cfg.Config.tma_issue_cycles (* first issue *)
    +. (2.0 *. bytes /. cfg.Config.tma_bytes_per_cycle)
    +. cfg.Config.tma_latency +. cfg.Config.mbar_cycles
  in
  Alcotest.(check bool)
    (Printf.sprintf "serialized completions (%.0f vs %.0f)" o.Sim.cycles expect)
    true
    (Float.abs (o.Sim.cycles -. expect) < 2.0);
  Alcotest.(check bool) "tma busy accounted" true (o.Sim.stats.Sim.tma_count = 2)

let test_wgmma_wait_time_warps () =
  (* Issue one wgmma, spin on cheap scalar work, then wait: the wait
     must advance the clock to the MMA completion, not double-count. *)
  let p =
    mk_program
      [ stream
          [ Isa.Mov { dst = 0; src = Isa.Imm 0 };
            Isa.Wgmma { a = Isa.Wreg 0; b = Isa.Wreg 0; acc = 1; m = 128; n = 128; k = 64;
                        dtype = Dtype.F16 };
            Isa.Wgmma_commit;
            Isa.Wgmma_wait 0;
            Isa.Exit ] ]
  in
  let o, _ = run_program p in
  let dur = 2.0 *. 128.0 *. 128.0 *. 64.0 /. (cfg.Config.tc_flops_per_cycle_f16 *. cfg.Config.tc_efficiency) in
  Alcotest.(check bool) "clock at mma completion" true
    (o.Sim.cycles >= dur && o.Sim.cycles < dur +. 30.0)

let test_wgmma_pending_bound () =
  (* wait(1) must leave one group in flight: total time for two
     back-to-back MMAs with wait(1) between is ~one MMA, not two. *)
  let mma =
    Isa.Wgmma { a = Isa.Wreg 0; b = Isa.Wreg 0; acc = 1; m = 128; n = 128; k = 64;
                dtype = Dtype.F16 }
  in
  let p =
    mk_program
      [ stream [ mma; Isa.Wgmma_commit; Isa.Wgmma_wait 1; mma; Isa.Wgmma_commit; Isa.Exit ] ]
  in
  let o, _ = run_program p in
  let dur = 2.0 *. 128.0 *. 128.0 *. 64.0 /. (cfg.Config.tc_flops_per_cycle_f16 *. cfg.Config.tc_efficiency) in
  Alcotest.(check bool) "second mma left pending" true (o.Sim.cycles < dur)

(* WG1 blocks on a barrier that WG0 arrives on later: the sim must wake
   WG1 at WG0's arrival time. *)
let test_mbar_wakeup () =
  let burn n = List.init n (fun _ -> Isa.Alu { op = Op.Add; dst = 0; a = Isa.Reg 0; b = Isa.Imm 1 }) in
  let p =
    mk_program ~num_mbarriers:1 ~arrive:[| 1 |]
      [ stream ~role:Op.Producer
          (burn 50 @ [ Isa.Mbar_arrive { Isa.base = 0; index = Isa.Imm 0 }; Isa.Exit ]);
        stream
          [ Isa.Mbar_wait { bar = { Isa.base = 0; index = Isa.Imm 0 }; target = Isa.Imm 1 };
            Isa.Exit ] ]
  in
  let o, cta = run_program p in
  let arrive_time = (50.0 *. cfg.Config.scalar_cycles) +. cfg.Config.mbar_cycles in
  Alcotest.(check bool) "consumer woke at arrival" true
    (Float.abs (cta.Oracle.wgs.(1).Oracle.time -. (arrive_time +. cfg.Config.mbar_cycles)) < 1.0);
  ignore o

let test_fence_synchronizes () =
  let burn n = List.init n (fun _ -> Isa.Alu { op = Op.Add; dst = 0; a = Isa.Reg 0; b = Isa.Imm 1 }) in
  let p =
    mk_program
      [ stream ~role:Op.Producer (burn 100 @ [ Isa.Fence; Isa.Exit ]);
        stream (burn 2 @ [ Isa.Fence; Isa.Exit ]) ]
  in
  let _, cta = run_program p in
  (* Both WGs leave the fence at the same time: max arrival + fence. *)
  Alcotest.(check (float 1.0)) "wg times equal"
    cta.Oracle.wgs.(0).Oracle.time cta.Oracle.wgs.(1).Oracle.time

let test_workq_shared_across_wgs () =
  (* Two WGs of one CTA must see the SAME popped values per round. *)
  let q = Launch.queue_of_list [ 7; 11; -1 ] in
  let body =
    [ Isa.Workq_pop { dst = 1 };
      Isa.Workq_pop { dst = 2 };
      Isa.Workq_pop { dst = 3 };
      Isa.Exit ]
  in
  let p = mk_program [ stream ~role:Op.Producer body; stream body ] in
  let _, cta = run_program ~pop:q p in
  List.iter
    (fun w ->
      Alcotest.(check bool) "pop 0" true (Oracle.reg_read w 1 = Sim.Rint 7);
      Alcotest.(check bool) "pop 1" true (Oracle.reg_read w 2 = Sim.Rint 11);
      Alcotest.(check bool) "pop drained" true (Oracle.reg_read w 3 = Sim.Rint (-1)))
    (Array.to_list cta.Oracle.wgs)

let test_workq_decodes_pid () =
  let q = Launch.queue_of_list [ 5 ] in
  let p =
    mk_program
      [ stream
          [ Isa.Workq_pop { dst = 1 }; Isa.Pid { dst = 2; axis = 0 };
            Isa.Pid { dst = 3; axis = 1 }; Isa.Exit ] ]
  in
  let _, cta = run_program ~pop:q p in
  (* grid is 4x4: linear 5 -> (x=1, y=1). *)
  Alcotest.(check bool) "pid x" true (Oracle.reg_read cta.Oracle.wgs.(0) 2 = Sim.Rint 1);
  Alcotest.(check bool) "pid y" true (Oracle.reg_read cta.Oracle.wgs.(0) 3 = Sim.Rint 1)

let test_cp_ring_wait () =
  let p =
    mk_program ~num_rings:1
      ~allocs:[ { Isa.alloc_id = 0; slots = 2; bytes_per_slot = 1024; label = "r" } ]
      ~param_tys:[ Tawa_ir.Types.ptr Dtype.F16 ]
      [ stream
          [ Isa.Mkdesc { dst = 1; ptr = Isa.Reg 0; sizes = []; strides = []; dtype = Dtype.F16 };
            Isa.Cp_async
              { ring = 0; desc = Isa.Reg 1; offs = [ Isa.Imm 0; Isa.Imm 0 ];
                dst = { Isa.alloc = 0; slot = Isa.Imm 0 }; rows = 16; cols = 32;
                dtype = Dtype.F16; last = true };
            Isa.Cp_wait_ring { ring = 0; target = Isa.Imm 1 };
            Isa.Exit ] ]
  in
  let o, _ = run_program ~params:[ Sim.Rnone ] p in
  Alcotest.(check bool) "waited for copy + latency" true (o.Sim.cycles > cfg.Config.tma_latency)

let test_sync_reset_clears_barriers () =
  let p =
    mk_program ~num_mbarriers:1 ~arrive:[| 1 |]
      [ stream
          [ Isa.Mbar_arrive { Isa.base = 0; index = Isa.Imm 0 };
            Isa.Sync_reset;
            (* After reset, phase target 1 must block again -> use
               try-style: arrive once more so the wait passes. *)
            Isa.Mbar_arrive { Isa.base = 0; index = Isa.Imm 0 };
            Isa.Mbar_wait { bar = { Isa.base = 0; index = Isa.Imm 0 }; target = Isa.Imm 1 };
            Isa.Exit ] ]
  in
  let _, cta = run_program p in
  Alcotest.(check int) "one completion after reset" 1
    (Mbarrier.completions cta.Oracle.mbars.(0))

(* Trace collection goes through the profiler's recorder: a wgmma
   issued and waited on shows up as op spans on its warp group's lane.
   In functional mode, on a bound input buffer, the decoded engine
   retires one op per unit and records the oracle's spans exactly; in
   timing mode it collapses the stream into cost blocks whose spans
   cover the same window. *)
let test_trace_collection () =
  let p =
    mk_program ~param_tys:[ Types.ptr Dtype.F16 ]
      [ stream
          [ Isa.Mkdesc { dst = 1; ptr = Isa.Reg 0; sizes = []; strides = []; dtype = Dtype.F16 };
            Isa.Ldg { dst = 2; desc = Isa.Reg 1; offs = [ Isa.Imm 0; Isa.Imm 0 ]; rows = 64;
                      cols = 64; dtype = Dtype.F16 };
            Isa.Tile_splat { dst = 3; src = Isa.Fimm 0.0; shape = [ 64; 64 ]; dtype = Dtype.F32 };
            Isa.Wgmma { a = Isa.Wreg 2; b = Isa.Wreg 2; acc = 3; m = 64; n = 64; k = 64;
                        dtype = Dtype.F16 };
            Isa.Wgmma_commit; Isa.Wgmma_wait 0; Isa.Exit ] ]
  in
  let spans ~cfg ~params (run_cta : Oracle.runner) =
    let recorder = Tawa_obs.Prof.create () in
    let o =
      run_cta ~recorder ~cfg ~program:p ~params ~num_programs:[| 1; 1; 1 |]
        ~pop_global:Launch.no_queue ()
    in
    ( Tawa_obs.Prof.op_intervals recorder
        ~wg_label:(Sim.wg_label_of ~program:p)
        ~pc_label:(Sim.pc_label_of ~program:p),
      o.Sim.cycles )
  in
  let extent l =
    List.fold_left
      (fun (lo, hi) (_, t0, t1, _) -> (Float.min lo t0, Float.max hi t1))
      (infinity, neg_infinity) l
  in
  let functional = { cfg with Config.mode = Config.Functional } in
  let a () = [ Sim.Rtensor (Tensor.random ~dtype:Dtype.F16 ~seed:3 [| 64; 64 |]) ] in
  let per_op_oracle, _ = spans ~cfg:functional ~params:(a ()) Oracle.run_cta in
  let per_op, _ = spans ~cfg:functional ~params:(a ()) Engine.run_cta in
  Alcotest.(check bool) "functional per-op spans identical to the oracle" true
    (per_op <> [] && per_op_oracle = per_op);
  let oracle, wall = spans ~cfg ~params:[ Sim.Rnone ] Oracle.run_cta in
  let collapsed, _ = spans ~cfg ~params:[ Sim.Rnone ] Engine.run_cta in
  Alcotest.(check bool) "tc work recorded" true
    (List.exists
       (fun (lane, t0, t1, label) ->
         lane = Sim.wg_label_of ~program:p 0
         && Astring.String.is_infix ~affix:"wgmma.mma_async" label
         && t1 > t0)
       oracle);
  Alcotest.(check bool) "lane runs from launch to the tc wait's end" true
    (extent oracle = (0.0, wall));
  Alcotest.(check bool) "cost blocks cover the same window" true
    (extent collapsed = extent oracle);
  Alcotest.(check bool) "cost blocks collapse the timing spans" true
    (List.length collapsed < List.length oracle)

(* ------------------------------------------------------------------ *)
(* Launch model                                                        *)
(* ------------------------------------------------------------------ *)

let test_estimate_wave_scaling () =
  (* Doubling the grid (in full waves) roughly doubles non-persistent
     time net of the fixed launch overhead. *)
  let p = mk_program [ stream (List.init 200 (fun _ -> Isa.Nop) @ [ Isa.Exit ]) ] in
  let t1 = Launch.estimate ~cfg p ~params:[] ~grid:(cfg.Config.num_sms, 1, 1) ~flops:1.0 in
  let t2 = Launch.estimate ~cfg p ~params:[] ~grid:(2 * cfg.Config.num_sms, 1, 1) ~flops:1.0 in
  let net1 = t1.Launch.cycles -. cfg.Config.launch_overhead_cycles in
  let net2 = t2.Launch.cycles -. cfg.Config.launch_overhead_cycles in
  Alcotest.(check (float 1.0)) "2x waves" (2.0 *. net1) net2

let test_estimate_partial_wave_quantization () =
  (* 1 CTA and num_sms CTAs cost the same (one wave). *)
  let p = mk_program [ stream (List.init 50 (fun _ -> Isa.Nop) @ [ Isa.Exit ]) ] in
  let t1 = Launch.estimate ~cfg p ~params:[] ~grid:(1, 1, 1) ~flops:1.0 in
  let t2 = Launch.estimate ~cfg p ~params:[] ~grid:(cfg.Config.num_sms, 1, 1) ~flops:1.0 in
  Alcotest.(check (float 0.01)) "wave quantized" t1.Launch.cycles t2.Launch.cycles

let test_estimate_persistent_share () =
  (* A persistent program over num_sms tiles runs each tile once per
     SM: one pop round plus the drain round. *)
  let body = [ Isa.Workq_pop { dst = 1 } ] in
  let p =
    mk_program ~persistent:true
      [ { Isa.role = Op.Consumer; coop = 1;
          instrs =
            [| Isa.Workq_pop { dst = 1 };
               Isa.Cmp { op = Op.Lt; dst = 2; a = Isa.Reg 1; b = Isa.Imm 0 };
               Isa.Brnz { cond = Isa.Reg 2; target = 5 };
               Isa.Nop;
               Isa.Bra { target = 0 };
               Isa.Exit |] } ]
  in
  ignore body;
  let t = Launch.estimate ~cfg p ~params:[] ~grid:(cfg.Config.num_sms, 1, 1) ~flops:1.0 in
  (* 1 work item + 1 drained pop. *)
  Alcotest.(check bool) "two pops worth of time" true
    (t.Launch.cycles
    < cfg.Config.launch_overhead_cycles +. (2.5 *. cfg.Config.workq_pop_cycles) +. 50.0)

let suites =
  [
    ( "gpusim.exec",
      [
        Alcotest.test_case "scalar alu" `Quick test_scalar_alu;
        Alcotest.test_case "branching loop" `Quick test_branching_loop;
        Alcotest.test_case "div by zero" `Quick test_div_by_zero_reported;
      ] );
    ( "gpusim.async",
      [
        Alcotest.test_case "tma engine serializes" `Quick test_tma_engine_serializes;
        Alcotest.test_case "wgmma wait time-warps" `Quick test_wgmma_wait_time_warps;
        Alcotest.test_case "wgmma pending bound" `Quick test_wgmma_pending_bound;
        Alcotest.test_case "mbar wakeup" `Quick test_mbar_wakeup;
        Alcotest.test_case "fence" `Quick test_fence_synchronizes;
        Alcotest.test_case "workq shared" `Quick test_workq_shared_across_wgs;
        Alcotest.test_case "workq pid decode" `Quick test_workq_decodes_pid;
        Alcotest.test_case "cp ring wait" `Quick test_cp_ring_wait;
        Alcotest.test_case "sync reset" `Quick test_sync_reset_clears_barriers;
        Alcotest.test_case "trace collection" `Quick test_trace_collection;
      ] );
    ( "gpusim.launch",
      [
        Alcotest.test_case "wave scaling" `Quick test_estimate_wave_scaling;
        Alcotest.test_case "wave quantization" `Quick test_estimate_partial_wave_quantization;
        Alcotest.test_case "persistent share" `Quick test_estimate_persistent_share;
      ] );
  ]
