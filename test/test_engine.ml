(* Differential tests pinning the decoded (closure-compiled) engine to
   the tree-walking oracle ([Oracle]), bit for bit: same cycles, same
   stats, same stall and channel profiles, same functional tensors,
   same error messages — across hand-built ISA programs, compiled
   frontend kernels, and the fuzz corpus, in both functional and
   timing modes. Also property-tests the typed register planes against
   an rt-array model, and pins engine regressions (fence release on
   Exit, ring deadlock diagnostics, the Ldg bandwidth config knob, the
   one engine every entry point selects, the decode cache). *)

open Tawa_tensor
open Tawa_ir
open Tawa_machine
open Tawa_gpusim
module Flow = Tawa_core.Flow

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

(* Run one CTA of a hand-built program on the oracle and on the decoded
   engine. [mk_pop] builds a fresh queue per run (queues are
   stateful). *)
let run_both ?(params = []) ?(mk_pop = fun () -> Launch.no_queue) ?(cfg = cfg) p =
  let run (run_cta : Oracle.runner) =
    run_cta ~cfg ~program:p ~params ~num_programs:[| 4; 4; 1 |]
      ~pop_global:(mk_pop ()) ()
  in
  (run Oracle.run_cta, run Engine.run_cta)

let check_both ?params ?mk_pop ?cfg name p =
  let r, d = run_both ?params ?mk_pop ?cfg p in
  Alcotest.(check bool)
    (Printf.sprintf "%s: decoded == oracle (%.2f vs %.2f cycles, %d vs %d steps)"
       name d.Sim.cycles r.Sim.cycles d.Sim.stats.Sim.steps r.Sim.stats.Sim.steps)
    true (Oracle.outcomes_equal r d)

(* Both engines must fail with the IDENTICAL error message. *)
let run_both_err ?(params = []) p =
  let run (run_cta : Oracle.runner) =
    try
      ignore
        (run_cta ~cfg ~program:p ~params ~num_programs:[| 4; 4; 1 |]
           ~pop_global:Launch.no_queue ());
      None
    with Sim.Sim_error msg -> Some msg
  in
  (run Oracle.run_cta, run Engine.run_cta)

(* ------------------------------------------------------------------ *)
(* Hand-built ISA differential                                         *)
(* ------------------------------------------------------------------ *)

let test_scalar_mix () =
  check_both "scalar mix"
    (mk_program
       [ stream
           [ Isa.Mov { dst = 0; src = Isa.Fimm 2.5 };
             Isa.Alu { op = Op.Add; dst = 1; a = Isa.Reg 0; b = Isa.Imm 3 };
             Isa.Cmp { op = Op.Lt; dst = 2; a = Isa.Reg 1; b = Isa.Fimm 6.0 };
             Isa.Sel { dst = 3; cond = Isa.Reg 2; a = Isa.Reg 1; b = Isa.Imm 9 };
             Isa.Alu { op = Op.Max; dst = 4; a = Isa.Imm 7; b = Isa.Imm (-2) };
             Isa.Pid { dst = 5; axis = 0 };
             Isa.Npid { dst = 6; axis = 1 };
             Isa.Exit ] ]);
  check_both "branching loop"
    (mk_program
       [ stream
           [ Isa.Mov { dst = 0; src = Isa.Imm 0 };
             Isa.Cmp { op = Op.Lt; dst = 1; a = Isa.Reg 0; b = Isa.Imm 10 };
             Isa.Brz { cond = Isa.Reg 1; target = 5 };
             Isa.Alu { op = Op.Add; dst = 0; a = Isa.Reg 0; b = Isa.Imm 1 };
             Isa.Bra { target = 1 };
             Isa.Exit ] ])

let test_tma_mbar () =
  let rows = 64 and cols = 64 in
  check_both "tma + mbar wait" ~params:[ Sim.Rnone ]
    (mk_program ~num_mbarriers:2 ~arrive:[| 1; 1 |]
       ~allocs:[ { Isa.alloc_id = 0; slots = 2; bytes_per_slot = rows * cols * 2; label = "t" } ]
       ~param_tys:[ Types.ptr Dtype.F16 ]
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
             Isa.Mbar_wait { bar = { Isa.base = 1; index = Isa.Imm 0 }; target = Isa.Imm 1 };
             Isa.Exit ] ])

let test_cross_wg_wake () =
  (* Consumer blocks on the mbar before the producer arrives: exercises
     the decoded engine's event-driven wake path. The Nops skew the
     producer's clock so the consumer genuinely blocks. *)
  check_both "mbar producer/consumer"
    (mk_program ~num_mbarriers:1 ~arrive:[| 1 |]
       [ stream ~role:Op.Producer
           [ Isa.Nop; Isa.Nop; Isa.Nop; Isa.Nop;
             Isa.Mbar_arrive { base = 0; index = Isa.Imm 0 }; Isa.Exit ];
         stream
           [ Isa.Mbar_wait { bar = { Isa.base = 0; index = Isa.Imm 0 }; target = Isa.Imm 1 };
             Isa.Exit ] ]);
  check_both "ring producer/consumer" ~params:[ Sim.Rnone ]
    (mk_program ~num_rings:1 ~param_tys:[ Types.ptr Dtype.F16 ]
       ~allocs:[ { Isa.alloc_id = 0; slots = 2; bytes_per_slot = 64; label = "r" } ]
       [ stream ~role:Op.Producer
           [ Isa.Mkdesc { dst = 1; ptr = Isa.Reg 0; sizes = []; strides = []; dtype = Dtype.F16 };
             Isa.Cp_async
               { ring = 0; desc = Isa.Reg 1; offs = [ Isa.Imm 0; Isa.Imm 0 ];
                 dst = { Isa.alloc = 0; slot = Isa.Imm 0 }; rows = 4; cols = 4;
                 dtype = Dtype.F16; last = true };
             Isa.Exit ];
         stream
           [ Isa.Cp_wait_ring { ring = 0; target = Isa.Imm 1 }; Isa.Exit ] ])

let test_fence_and_wgmma () =
  check_both "two-wg fence"
    (mk_program
       [ stream [ Isa.Nop; Isa.Fence; Isa.Exit ]; stream [ Isa.Fence; Isa.Exit ] ]);
  check_both "wgmma pipeline"
    (mk_program
       [ stream
           [ Isa.Wgmma { a = Isa.Wreg 0; b = Isa.Wreg 1; acc = 2; m = 64; n = 64; k = 16;
                         dtype = Dtype.F16 };
             Isa.Wgmma_commit;
             Isa.Wgmma { a = Isa.Wreg 0; b = Isa.Wreg 1; acc = 2; m = 64; n = 64; k = 16;
                         dtype = Dtype.F16 };
             Isa.Wgmma_commit;
             Isa.Wgmma_wait 0;
             Isa.Exit ] ])

let test_persistent_queue () =
  let mk_pop () = Launch.queue_of_list [ 0; 3; 5; 14 ] in
  check_both "persistent work queue" ~mk_pop
    (mk_program ~persistent:true
       [ stream
           [ (* 0 *) Isa.Workq_pop { dst = 0 };
             (* 1 *) Isa.Cmp { op = Op.Lt; dst = 1; a = Isa.Reg 0; b = Isa.Imm 0 };
             (* 2 *) Isa.Brnz { cond = Isa.Reg 1; target = 4 };
             (* 3 *) Isa.Bra { target = 0 };
             (* 4 *) Isa.Exit ] ])

(* ------------------------------------------------------------------ *)
(* Scheduler order: a WG keeps its slot only while it is earliest      *)
(* ------------------------------------------------------------------ *)

(* A timing-mode TMA load of a 64x64 f16 tile that arrives on [bar]. *)
let tma bar =
  Isa.Tma_load
    { desc = Isa.Reg 9; offs = [ Isa.Imm 0; Isa.Imm 0 ];
      dst = { Isa.alloc = 0; slot = Isa.Imm 0 }; rows = 64; cols = 64;
      dtype = Dtype.F16; full = { Isa.base = bar; index = Isa.Imm 0 } }

let arrive bar = Isa.Mbar_arrive { base = bar; index = Isa.Imm 0 }
let wait bar = Isa.Mbar_wait { bar = { Isa.base = bar; index = Isa.Imm 0 }; target = Isa.Imm 1 }

(* Both engines with a recorder attached: the outcomes (cycles, stats,
   profiles) and every recorded event, in recording order, must agree
   bit for bit. Returns the decoded engine's recorder. *)
let check_recorded ~cfg name p =
  let run (run_cta : Oracle.runner) =
    let recorder = Tawa_obs.Prof.create () in
    let o =
      run_cta ~recorder ~cfg ~program:p ~params:[] ~num_programs:[| 1; 1; 1 |]
        ~pop_global:Launch.no_queue ()
    in
    (o, recorder)
  in
  let ro, rr = run Oracle.run_cta and eo, er = run Engine.run_cta in
  let same what eq = Alcotest.(check bool) (name ^ ": " ^ what) true eq in
  same "outcome" (Oracle.outcomes_equal ro eo);
  same "op spans" (rr.Tawa_obs.Prof.ops = er.Tawa_obs.Prof.ops);
  same "completions" (rr.Tawa_obs.Prof.completions = er.Tawa_obs.Prof.completions);
  same "waits" (rr.Tawa_obs.Prof.waits = er.Tawa_obs.Prof.waits);
  er

(* WG 1's arrival (a non-local unit) completes the phase WG 0 waits on.
   With a zero sync cost WG 0 wakes at exactly WG 1's clock, so the
   index tie-break hands the next slot to WG 0: it must issue its TMA
   load first, and WG 1's lands behind it on the shared pipe. A
   scheduler that kept WG 1 running on a tie would swap the two. *)
let test_wake_tie_yields () =
  let p =
    mk_program ~num_mbarriers:3 ~arrive:[| 1; 1; 1 |]
      [ stream [ wait 0; tma 1; wait 1; Isa.Exit ];
        stream ~role:Op.Producer [ arrive 0; tma 2; wait 2; Isa.Exit ] ]
  in
  let r = check_recorded ~cfg:{ cfg with Config.mbar_cycles = 0.0 } "wake tie" p in
  let landed chan =
    List.find (fun c -> c.Tawa_obs.Prof.cp_chan = chan) r.Tawa_obs.Prof.completions
  in
  Alcotest.(check bool) "WG 0 issued its TMA load first" true
    ((landed 1).Tawa_obs.Prof.cp_time < (landed 2).Tawa_obs.Prof.cp_time)

(* WG 1's long load puts it far ahead in time, so WG 0 stays the
   earliest WG across four TMA issues, the wait they complete and an
   arrival in a row, without giving up its slot. *)
let test_earliest_keeps_running () =
  let p =
    mk_program ~num_mbarriers:2 ~arrive:[| 4; 1 |]
      [ stream [ tma 0; tma 0; tma 0; tma 0; wait 0; arrive 1; Isa.Exit ];
        stream
          [ Isa.Ldg { dst = 8; desc = Isa.Reg 9; offs = [ Isa.Imm 0; Isa.Imm 0 ];
                      rows = 64; cols = 64; dtype = Dtype.F16 };
            wait 1; Isa.Exit ] ]
  in
  ignore (check_recorded ~cfg "earliest keeps running" p)

(* ------------------------------------------------------------------ *)
(* Satellite regressions                                               *)
(* ------------------------------------------------------------------ *)

(* A WG blocked on a fence whose peer exits without fencing must be
   released by the exit (live count shrinks), not deadlock. *)
let test_fence_released_on_exit () =
  let p =
    mk_program
      [ stream [ Isa.Fence; Isa.Exit ]; stream [ Isa.Nop; Isa.Nop; Isa.Exit ] ]
  in
  check_both "fence released by peer exit" p

(* Deadlock diagnostics carry the observed completion count, and both
   engines produce the identical report. *)
let test_deadlock_diagnostics () =
  let ring_p =
    mk_program ~num_rings:1
      [ stream [ Isa.Cp_wait_ring { ring = 0; target = Isa.Imm 2 }; Isa.Exit ] ]
  in
  (match run_both_err ring_p with
  | Some mr, Some md ->
    Alcotest.(check string) "ring deadlock report identical" mr md;
    Alcotest.(check bool) "ring report has (have 0)" true
      (Astring.String.is_infix ~affix:"ring 0 >= 2 (have 0)" mr)
  | _ -> Alcotest.fail "expected both engines to deadlock");
  let mbar_p =
    mk_program ~num_mbarriers:1 ~arrive:[| 1 |]
      [ stream
          [ Isa.Mbar_arrive { base = 0; index = Isa.Imm 0 };
            Isa.Mbar_wait { bar = { Isa.base = 0; index = Isa.Imm 0 }; target = Isa.Imm 3 };
            Isa.Exit ] ]
  in
  match run_both_err mbar_p with
  | Some mr, Some md ->
    Alcotest.(check string) "mbar deadlock report identical" mr md;
    Alcotest.(check bool) "mbar report has (have 1)" true
      (Astring.String.is_infix ~affix:"mbar 0 >= 3 (have 1)" mr)
  | _ -> Alcotest.fail "expected both engines to deadlock"

(* The Ldg gather bandwidth is a config knob (was a magic 12.0). *)
let test_ldg_bandwidth_config () =
  let p bytes_rows =
    mk_program ~param_tys:[ Types.ptr Dtype.F16 ]
      [ stream
          [ Isa.Mkdesc { dst = 1; ptr = Isa.Reg 0; sizes = []; strides = []; dtype = Dtype.F16 };
            Isa.Ldg
              { dst = 2; desc = Isa.Reg 1; offs = [ Isa.Imm 0; Isa.Imm 0 ];
                rows = bytes_rows; cols = 4; dtype = Dtype.F16 };
            Isa.Exit ] ]
  in
  let cycles ~cfg =
    let o, _d = run_both ~params:[ Sim.Rnone ] ~cfg (p 4) in
    Alcotest.(check bool) "ldg engines agree" true (Oracle.outcomes_equal o _d);
    o.Sim.cycles
  in
  let base = cycles ~cfg in
  let expect = 20.0 +. cfg.Config.tma_latency +. (32.0 /. cfg.Config.ldg_bytes_per_cycle) in
  Alcotest.(check (float 1e-9)) "ldg cost uses config field" expect base;
  let slow = cycles ~cfg:{ cfg with Config.ldg_bytes_per_cycle = 6.0 } in
  Alcotest.(check (float 1e-9)) "halving bandwidth doubles gather time"
    (20.0 +. cfg.Config.tma_latency +. (32.0 /. 6.0))
    slow

(* ------------------------------------------------------------------ *)
(* Engine selection + decode cache                                     *)
(* ------------------------------------------------------------------ *)

(* There is one CTA engine, and every production entry point selects
   it: the retired-instruction counter, which only the decoded
   scheduler advances, moves by exactly what the oracle retires for the
   same CTAs. With the decode cache on, each (program, config) pair
   decodes once, whichever entry point sees it first. *)
let test_engine_selection () =
  let p =
    mk_program
      [ stream
          [ Isa.Mov { dst = 0; src = Isa.Imm 3 };
            Isa.Alu { op = Op.Add; dst = 1; a = Isa.Reg 0; b = Isa.Imm 4 };
            Isa.Exit ] ]
  in
  let grid = (2, 1, 1) and num_programs = [| 2; 1; 1 |] in
  let one_cta =
    (Oracle.run_cta ~cfg ~program:p ~params:[] ~num_programs
       ~pop_global:Launch.no_queue ())
      .Sim.instructions
  in
  let whole_grid =
    Array.fold_left
      (fun acc (o : Sim.outcome) -> acc + o.Sim.instructions)
      0
      (Oracle.run_grid_functional ~cfg p ~params:[] ~grid)
  in
  Alcotest.(check bool) "oracle retires instructions" true (one_cta > 0);
  Engine.clear_decode_cache ();
  let check_entry name ~expect ~misses ~hits f =
    let before = Engine.instructions_retired () in
    f ();
    Alcotest.(check int)
      (name ^ ": retired on the decoded engine")
      expect
      (Engine.instructions_retired () - before);
    let s = Engine.decode_cache_stats () in
    Alcotest.(check int) (name ^ ": decodes") misses s.Progcache.misses;
    Alcotest.(check int) (name ^ ": decode cache hits") hits s.Progcache.hits
  in
  check_entry "Engine.run_cta" ~expect:one_cta ~misses:1 ~hits:0 (fun () ->
      ignore
        (Engine.run_cta ~cfg ~program:p ~params:[] ~num_programs
           ~pop_global:Launch.no_queue ()));
  check_entry "Launch.estimate" ~expect:one_cta ~misses:1 ~hits:1 (fun () ->
      ignore (Launch.estimate ~cfg p ~params:[] ~grid ~flops:1.0));
  check_entry "Engine.run_measured" ~expect:one_cta ~misses:1 ~hits:2 (fun () ->
      ignore
        (Engine.run_measured ~cfg ~program:p ~params:[] ~num_programs
           ~pop_global:Launch.no_queue ()));
  (* Functional mode keys the cache separately: one more decode. *)
  check_entry "Launch.run_grid_functional" ~expect:whole_grid ~misses:2 ~hits:2
    (fun () -> ignore (Launch.run_grid_functional ~cfg p ~params:[] ~grid))

let test_decode_cache () =
  Engine.clear_decode_cache ();
  let p = mk_program [ stream [ Isa.Nop; Isa.Exit ] ] in
  ignore (Engine.prepare ~cfg p);
  ignore (Engine.prepare ~cfg p);
  let s = Engine.decode_cache_stats () in
  Alcotest.(check int) "one decode" 1 s.Progcache.misses;
  Alcotest.(check int) "one cache hit" 1 s.Progcache.hits;
  (* A different cost model must miss (costs are folded at decode). *)
  ignore
    (Engine.prepare ~cfg:{ cfg with Config.scalar_cycles = 99.0 } p);
  let s = Engine.decode_cache_stats () in
  Alcotest.(check int) "config change misses" 2 s.Progcache.misses

(* ------------------------------------------------------------------ *)
(* Typed register planes vs rt-array model                             *)
(* ------------------------------------------------------------------ *)

type wop =
  | Wint of int * int
  | Wfloat of int * float
  | Wbool of int * bool
  | Wnone of int
  | Wcopy of int * int

let gen_wop =
  QCheck.Gen.(
    let reg = int_range 0 130 in
    oneof
      [ map2 (fun r v -> Wint (r, v)) reg (int_range (-1000000) 1000000);
        map2 (fun r v -> Wfloat (r, v)) reg (float_range (-1e6) 1e6);
        map2 (fun r v -> Wbool (r, v)) reg bool;
        map (fun r -> Wnone r) reg;
        map2 (fun a b -> Wcopy (a, b)) reg reg ])

let wop_print = function
  | Wint (r, v) -> Printf.sprintf "r%d<-i%d" r v
  | Wfloat (r, v) -> Printf.sprintf "r%d<-f%g" r v
  | Wbool (r, v) -> Printf.sprintf "r%d<-b%b" r v
  | Wnone r -> Printf.sprintf "r%d<-none" r
  | Wcopy (a, b) -> Printf.sprintf "r%d<-r%d" b a

let arb_wops =
  QCheck.make
    ~print:(fun l -> String.concat ";" (List.map wop_print l))
    QCheck.Gen.(list_size (int_range 0 60) gen_wop)

(* Oracle coercions on the boxed model value ([Oracle.as_int] /
   [as_float] / [as_bool]); [None] = must raise. *)
let model_int = function
  | Sim.Rint i -> Some i
  | Sim.Rbool b -> Some (if b then 1 else 0)
  | Sim.Rfloat f -> Some (int_of_float f)
  | _ -> None

let model_float = function
  | Sim.Rfloat f -> Some f
  | Sim.Rint i -> Some (Float.of_int i)
  | Sim.Rbool b -> Some (if b then 1.0 else 0.0)
  | _ -> None

let model_bool = function
  | Sim.Rbool b -> Some b
  | Sim.Rint i -> Some (i <> 0)
  | Sim.Rfloat f -> Some (f <> 0.0)
  | _ -> None

let coerces_like want got =
  match (want, got ()) with
  | Some w, Ok g -> w = g
  | None, Error (Sim.Sim_error _) -> true
  | _ -> false

let attempt f = try Ok (f ()) with e -> Error e

let prop_planes_model =
  QCheck.Test.make ~name:"planes: typed writes/copies match rt-array model" ~count:200
    arb_wops (fun ops ->
      let p = Decode.make_planes 64 in
      let model = Array.make 200 (Sim.Rint 0) in
      List.iter
        (function
          | Wint (r, v) ->
            Decode.set_int p r v;
            model.(r) <- Sim.Rint v
          | Wfloat (r, v) ->
            Decode.set_float p r v;
            model.(r) <- Sim.Rfloat v
          | Wbool (r, v) ->
            Decode.set_bool p r v;
            model.(r) <- Sim.Rbool v
          | Wnone r ->
            Decode.set_none p r;
            model.(r) <- Sim.Rnone
          | Wcopy (a, b) ->
            Decode.copy_reg p ~src:a ~dst:b;
            model.(b) <- model.(a))
        ops;
      (* Reads past any written register (150..199) must see the
         default Rint 0, like the reference's fixed-fill file. *)
      Array.for_all Fun.id
        (Array.init 200 (fun r ->
             Decode.get_rt p r = model.(r)
             && coerces_like (model_int model.(r)) (fun () ->
                    attempt (fun () -> Decode.get_int p r))
             && coerces_like (model_float model.(r)) (fun () ->
                    attempt (fun () -> Decode.get_float p r))
             && coerces_like (model_bool model.(r)) (fun () ->
                    attempt (fun () -> Decode.get_bool p r)))))

(* ------------------------------------------------------------------ *)
(* Compiled-kernel differential (functional + timing)                  *)
(* ------------------------------------------------------------------ *)

(* Every CTA of a functional grid, issued as [Launch.cta_units] issues
   them: the oracle's sequential grid against the decoded engine's
   units. Each CTA's whole outcome must match, and so must the output
   buffer ([params] binds a fresh one per engine). *)
let grid_functional_diff (program : Isa.program) ~params ~grid =
  let cfg = Config.functional_test in
  let o_params = params () and d_params = params () in
  let o = Oracle.run_grid_functional ~cfg program ~params:o_params ~grid in
  let d =
    Array.map
      (fun unit_ -> unit_ ())
      (Launch.cta_units ~prepared:(Engine.prepare ~cfg program) ~program
         ~params:d_params ~grid)
  in
  let outputs_equal =
    List.for_all2
      (fun a b ->
        match (a, b) with
        | Sim.Rtensor x, Sim.Rtensor y -> Tensor.equal x y
        | _ -> true)
      o_params d_params
  in
  Array.length o = Array.length d
  && Array.for_all2 Oracle.outcomes_equal o d
  && outputs_equal

(* The arguments of a GEMM-signature kernel; the kernel of fuzz [spec]
   may also take the f32 input e [M, N]. *)
let gemm_args ?spec a b c e ints =
  match spec with Some s -> Test_fuzz.args s a b c e ints | None -> [ a; b; c ] @ ints

let gemm_functional_diff ?spec compiled ~bm ~bn ~kk ~grid_m ~grid_n =
  let m = grid_m * bm and n = grid_n * bn in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:7 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:8 [| kk; n |] in
  let e = Tensor.random ~dtype:Dtype.F32 ~seed:9 [| m; n |] in
  grid_functional_diff compiled.Flow.program ~grid:(grid_m, grid_n, 1)
    ~params:(fun () ->
      let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
      gemm_args ?spec (Sim.Rtensor a) (Sim.Rtensor b) (Sim.Rtensor c) (Sim.Rtensor e)
        [ Sim.Rint m; Sim.Rint n; Sim.Rint kk ])

(* The CTA [Launch.estimate] simulates, under both engines. *)
let gemm_timing_diff ?spec compiled ~bm ~bn ~kk ~grid_m ~grid_n =
  let m = grid_m * bm and n = grid_n * bn in
  let o, d =
    Oracle.estimate_both ~cfg compiled.Flow.program
      ~params:
        (gemm_args ?spec Sim.Rnone Sim.Rnone Sim.Rnone Sim.Rnone
           [ Sim.Rint m; Sim.Rint n; Sim.Rint kk ])
      ~grid:(grid_m, grid_n, 1)
  in
  Oracle.outcomes_equal o d

let fuzz_compiles (s : Test_fuzz.spec) =
  [ ("ws d2p2", Test_fuzz.ws_compile ~d:2 ~p:2);
    ( "sw-pipeline",
      fun k ->
        Flow.compile
          ~options:{ Flow.default_options with strategy = Flow.Sw_pipelined 3; aref_depth = 3 } k );
    ( "persistent",
      fun k ->
        Flow.compile
          ~options:
            { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1; persistent = true;
              use_coarse = false } k ) ]
  |> List.map (fun (name, f) -> (name, f (Test_fuzz.build_kernel s)))

let prop_engine_fuzz =
  QCheck.Test.make
    ~name:"fuzz: decoded == reference across pipelines (functional + timing)" ~count:20
    Test_fuzz.arb_spec (fun s ->
      List.for_all
        (fun (_, compiled) ->
          gemm_functional_diff ~spec:s compiled ~bm:s.Test_fuzz.bm ~bn:s.Test_fuzz.bn
            ~kk:(s.Test_fuzz.trip * s.Test_fuzz.bk) ~grid_m:2 ~grid_n:2
          && gemm_timing_diff ~spec:s compiled ~bm:s.Test_fuzz.bm ~bn:s.Test_fuzz.bn
               ~kk:(s.Test_fuzz.trip * s.Test_fuzz.bk) ~grid_m:2 ~grid_n:2)
        (fuzz_compiles s))

(* Coarse-pipelined attention: the remaining frontend shape (softmax
   running state, Tile_select/Tile_cmp, transposed SMEM views). *)
let test_attention_diff () =
  let kernel = Tawa_frontend.Kernels.attention ~block_m:16 ~block_n:16 ~head_dim:8 () in
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 1; persistent = false;
          use_coarse = true }
      kernel
  in
  let l = 32 and d = 8 in
  let q = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| l; d |] in
  let kt = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| l; d |] in
  let v = Tensor.random ~dtype:Dtype.F16 ~seed:3 [| l; d |] in
  Alcotest.(check bool) "attention CTAs and tensors bit-identical" true
    (grid_functional_diff compiled.Flow.program ~grid:(l / 16, 1, 1)
       ~params:(fun () ->
         let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
         [ Sim.Rtensor q; Sim.Rtensor kt; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ]))

(* Cooperative consumer warp groups (coop > 1 divides tile costs). *)
let test_coop_diff () =
  let tiles = { Tawa_frontend.Kernels.block_m = 16; block_n = 16; block_k = 8 } in
  let compiled =
    Flow.compile
      ~options:
        { Flow.default_options with aref_depth = 2; mma_depth = 1; num_consumer_wgs = 2; persistent = false;
          use_coarse = false }
      (Tawa_frontend.Kernels.gemm ~tiles ())
  in
  Alcotest.(check bool) "coop=2 functional diff" true
    (gemm_functional_diff compiled ~bm:16 ~bn:16 ~kk:16 ~grid_m:2 ~grid_n:2);
  Alcotest.(check bool) "coop=2 timing diff" true
    (gemm_timing_diff compiled ~bm:16 ~bn:16 ~kk:16 ~grid_m:2 ~grid_n:2)

(* A write that a second write of the same register kills before any
   read (pc 1), around the 63-register word boundary of the liveness
   bit sets (pc 3 defines r62, which only pc 4 reads). *)
let liveness_probe =
  mk_program
    [ stream
        [ Isa.Mov { dst = 71; src = Isa.Imm 0 };
          Isa.Mov { dst = 70; src = Isa.Imm 1 };
          Isa.Mov { dst = 70; src = Isa.Imm 2 };
          Isa.Mov { dst = 62; src = Isa.Reg 70 };
          Isa.Alu { op = Op.Add; dst = 63; a = Isa.Reg 62; b = Isa.Reg 71 };
          Isa.Brz { cond = Isa.Reg 63; target = 7 };
          Isa.Nop;
          Isa.Exit ] ]

(* Every candidate program of both prefix-sharing spaces, a fixed draw
   of fuzz kernels (of the base fragment, whose kernels the pinned digest
   was recorded on) under each configuration the fuzz suite compiles them
   with, and [liveness_probe]: one digest of every stream's unit lengths,
   local mask and unit heads after decode. A head is a pc whose unit is
   not its plain closure: a cost block or a chain starts there. Lengths
   and local masks alone hide most elisions, since every elidable
   instruction is local and chains absorb cost blocks. *)
let precision_corpus_digest () =
  let space fam =
    List.map
      (fun c -> (Tawa_core.Autotune.options_of c, Tawa_core.Autotune.kernel_of fam c))
      (Tawa_core.Autotune.space fam)
  in
  let fuzz_options =
    [ { Flow.default_options with aref_depth = 2; mma_depth = 2 };
      { Flow.default_options with aref_depth = 4; mma_depth = 3 };
      { Flow.default_options with strategy = Flow.Sw_pipelined 3; aref_depth = 3 };
      { Flow.default_options with strategy = Flow.Naive };
      { Flow.default_options with aref_depth = 2; mma_depth = 1; persistent = true } ]
  in
  let fuzz =
    List.concat_map
      (fun s ->
        let k = Test_fuzz.build_kernel s in
        List.map (fun o -> (o, k)) fuzz_options)
      (QCheck.Gen.generate ~rand:(Random.State.make [| 19 |]) ~n:16 Test_fuzz.gen_base_spec)
  in
  let programs =
    List.map
      (fun (options, kernel) -> (Flow.compile ~options kernel).Flow.program)
      (space Test_core.gemm_family @ space Test_core.attention_family @ fuzz)
    @ [ liveness_probe ]
  in
  let b = Buffer.create 4096 in
  List.iter
    (fun p ->
      let d = Decode.decode ~cfg p in
      let heads = Array.map2 (Array.map2 ( != )) d.Decode.d_units d.Decode.d_codes in
      Buffer.add_string b
        (Marshal.to_string (d.Decode.d_lens, d.Decode.d_local, heads) [ Marshal.No_sharing ]))
    programs;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The timing-mode decode of every example kernel under three
   strategies, reduced to its unit lengths and local masks: these pin
   exactly which instructions the decode-time fixpoints elide and fuse
   (a lost elision stays correct, so the differentials cannot see it;
   it only runs slower). Recorded before the fixpoints moved to flat
   byte matrices. *)
let test_decode_precision () =
  let dir = Paths.examples_dir in
  let pins =
    [ ( "attention.tw",
        [ "96ca703ec151f0602fda33b6b7d29b49"; "2e72ecefc58166b4ef5d707b61568756";
          "cf3c3fa3106c0faa6dbf2b848a877215" ] );
      ( "gemm.tw",
        [ "ddcb5446572dae83e01899d5e0e3aba7"; "07064253bf4c8d3c21da5a2d7ed98fab";
          "c2045ad426e76427ee28a254fb9d8609" ] );
      ( "gemm_bias_relu.tw",
        [ "fa926298745bd617b01a96817e75c6c9"; "88588289c6d52bcc618fa0bb4ab58e08";
          "4c53030a4e14a8795a785a49bc5d081e" ] );
      ( "gemm_fp8.tw",
        [ "ddcb5446572dae83e01899d5e0e3aba7"; "07064253bf4c8d3c21da5a2d7ed98fab";
          "c2045ad426e76427ee28a254fb9d8609" ] ) ]
  in
  let strategies =
    [ Flow.default_options;
      { Flow.default_options with strategy = Flow.Sw_pipelined 3; aref_depth = 3 };
      { Flow.default_options with strategy = Flow.Naive } ]
  in
  List.iter
    (fun (file, digests) ->
      let kernel =
        match Tawa_frontend.Elaborate.compile_file (Filename.concat dir file) with
        | [ k ] -> k
        | ks -> Alcotest.failf "%s: expected one kernel, got %d" file (List.length ks)
      in
      List.iter2
        (fun options want ->
          let d = Decode.decode ~cfg (Flow.compile ~options kernel).Flow.program in
          let got =
            Digest.to_hex
              (Digest.string
                 (Marshal.to_string (d.Decode.d_lens, d.Decode.d_local) [ Marshal.No_sharing ]))
          in
          Alcotest.(check string) (file ^ " " ^ Flow.options_key options) want got)
        strategies digests)
    pins;
  Alcotest.(check string) "search spaces and fuzz kernels"
    "93204e9e7695b0b761c8c50943ab5cf1" (precision_corpus_digest ())

(* ------------------------------------------------------------------ *)
(* Tile ownership: payload reuse never writes a tile that escaped      *)
(* ------------------------------------------------------------------ *)

(* A payload op overwrites the tile its destination register owns. In
   each program a 4x4 f32 tile held by r5 escapes its register through
   one instruction. Then the register holding it is overwritten by a
   reusing op, and the escaped copy is stored to the output buffer
   (parameter r0), so a reuse that wrote the escaped tile shows there.
   The oracle never reuses; the engine must match it, output and input
   buffer (parameter r2) alike. *)
let own_shape = [ 4; 4 ]
let own_slot = { Isa.alloc = 0; slot = Isa.Imm 0 }
let own_splat dst v =
  Isa.Tile_splat { dst; src = Isa.Fimm v; shape = own_shape; dtype = Dtype.F32 }

let own_lds dst =
  Isa.Lds { dst; src = Isa.view_of_slot own_slot; shape = own_shape; dtype = Dtype.F32 }

let own_sts src = Isa.Sts { src = Isa.Reg src; dst = own_slot; elems = 16; dtype = Dtype.F32 }

(* The reusing ops, each writing register [w] with a 4x4 f32 tile.
   r8 and r10 are 4x4 operands, r9 a 4x1 column. *)
let own_overwrites =
  [ ("unop", fun w -> [ Isa.Tile_unop { op = Op.Neg; dst = w; src = Isa.Reg w; elems = 16 } ]);
    ( "binop",
      fun w ->
        [ Isa.Tile_binop { op = Op.Add; dst = w; a = Isa.Reg w; b = Isa.Reg 8; elems = 16 } ] );
    ( "cast",
      fun w -> [ Isa.Tile_cast { dst = w; src = Isa.Reg 8; dtype = Dtype.F32; elems = 16 } ] );
    ("bcast", fun w -> [ Isa.Tile_bcast { dst = w; src = Isa.Reg 9; shape = own_shape } ]);
    ("splat", fun w -> [ own_splat w 7.0 ]);
    ( "wgmma",
      fun w ->
        [ Isa.Wgmma
            { a = Isa.Wreg 8; b = Isa.Wreg 10; acc = w; m = 4; n = 4; k = 4; dtype = Dtype.F16 };
          Isa.Wgmma_commit; Isa.Wgmma_wait 0 ] ) ]

(* Escapes: the instructions that let r5's tile escape, the register
   then overwritten, the instructions that fetch the escaped copy, and
   the register they leave it in. The "(dst)" forms overwrite a
   copy's destination, which owned a tile before the copy. *)
let own_escapes =
  [ ("mov", [ Isa.Mov { dst = 6; src = Isa.Reg 5 } ], 5, [], 6);
    ("mov (dst)", [ own_splat 6 4.0; Isa.Mov { dst = 6; src = Isa.Reg 5 } ], 6, [], 5);
    ("sel", [ Isa.Sel { dst = 6; cond = Isa.Imm 1; a = Isa.Reg 5; b = Isa.Reg 8 } ], 5, [], 6);
    ( "sel (dst)",
      [ own_splat 6 4.0; Isa.Sel { dst = 6; cond = Isa.Imm 0; a = Isa.Reg 8; b = Isa.Reg 5 } ],
      6, [], 5 );
    ("sts", [ own_sts 5 ], 5, [ own_lds 6 ], 6);
    ("lds", [ own_splat 7 3.0; own_sts 7; own_lds 5 ], 5, [ own_lds 6 ], 6);
    ( "mkdesc",
      [ Isa.Mkdesc { dst = 6; ptr = Isa.Reg 5; sizes = []; strides = []; dtype = Dtype.F32 } ],
      5,
      [ Isa.Ldg { dst = 7; desc = Isa.Reg 6; offs = [ Isa.Imm 0; Isa.Imm 0 ]; rows = 4; cols = 4;
                  dtype = Dtype.F32 } ],
      7 );
    (* A parameter register binds the caller's input buffer. *)
    ("param", [], 2, [], 8) ]

let own_program ~escape ~overwrite ~w ~fetch ~stored =
  mk_program ~param_tys:[ Types.ptr Dtype.F32; Types.i32; Types.ptr Dtype.F32 ]
    ~allocs:[ { Isa.alloc_id = 0; slots = 1; bytes_per_slot = 64; label = "own" } ]
    [ stream
        ([ Isa.Mkdesc { dst = 1; ptr = Isa.Reg 0; sizes = []; strides = []; dtype = Dtype.F32 };
           own_splat 5 1.0; own_splat 8 2.0; own_splat 10 0.25;
           Isa.Tile_splat { dst = 9; src = Isa.Fimm 0.5; shape = [ 4; 1 ]; dtype = Dtype.F32 } ]
        @ escape @ overwrite w @ fetch
        @ [ Isa.Stg { desc = Isa.Reg 1; offs = [ Isa.Imm 0; Isa.Imm 0 ]; src = Isa.Reg stored;
                      rows = 4; cols = 4 };
            Isa.Exit ]) ]

let own_diff program =
  grid_functional_diff program ~grid:(1, 1, 1) ~params:(fun () ->
      let input = Tensor.create ~dtype:Dtype.F32 [| 4; 4 |] in
      Tensor.fill input 1.5;
      [ Sim.Rtensor (Tensor.create ~dtype:Dtype.F32 [| 4; 4 |]); Sim.Rint 0; Sim.Rtensor input ])

let test_ownership_escape (name, escape, w, fetch, stored) () =
  List.iter
    (fun (op, overwrite) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s escape, %s overwrite: decoded == oracle" name op)
        true
        (own_diff (own_program ~escape ~overwrite ~w ~fetch ~stored)))
    own_overwrites

(* A wgmma whose operand is its own accumulator must not accumulate in
   place: the product reads the operand while the sums are written. *)
let test_ownership_wgmma_alias () =
  List.iter
    (fun (name, a, b) ->
      Alcotest.(check bool) name true
        (own_diff
           (own_program ~escape:[] ~w:5 ~fetch:[] ~stored:5 ~overwrite:(fun w ->
                [ Isa.Wgmma { a; b; acc = w; m = 4; n = 4; k = 4; dtype = Dtype.F16 };
                  Isa.Wgmma_commit; Isa.Wgmma_wait 0 ]))))
    [ ("acc is A", Isa.Wreg 5, Isa.Wreg 8); ("acc is B", Isa.Wreg 8, Isa.Wreg 5);
      ("acc is A and B", Isa.Wreg 5, Isa.Wreg 5) ]

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "engine.differential",
      [
        Alcotest.test_case "scalar mix + loop" `Quick test_scalar_mix;
        Alcotest.test_case "tma + mbar wait" `Quick test_tma_mbar;
        Alcotest.test_case "cross-wg wake (mbar, ring)" `Quick test_cross_wg_wake;
        Alcotest.test_case "fence + wgmma" `Quick test_fence_and_wgmma;
        Alcotest.test_case "persistent work queue" `Quick test_persistent_queue;
        Alcotest.test_case "attention coarse pipeline" `Quick test_attention_diff;
        Alcotest.test_case "cooperative warp groups" `Quick test_coop_diff;
      ]
      @ qsuite [ prop_engine_fuzz ] );
    ( "engine.scheduler",
      [
        Alcotest.test_case "wake at the same clock yields" `Quick test_wake_tie_yields;
        Alcotest.test_case "earliest WG keeps running" `Quick test_earliest_keeps_running;
      ] );
    ( "engine.regressions",
      [
        Alcotest.test_case "fence released on exit" `Quick test_fence_released_on_exit;
        Alcotest.test_case "deadlock diagnostics" `Quick test_deadlock_diagnostics;
        Alcotest.test_case "ldg bandwidth config" `Quick test_ldg_bandwidth_config;
        Alcotest.test_case "engine selection" `Quick test_engine_selection;
        Alcotest.test_case "decode cache" `Quick test_decode_cache;
        Alcotest.test_case "decode precision pinned" `Quick test_decode_precision;
      ] );
    ("engine.planes", qsuite [ prop_planes_model ]);
    ( "engine.ownership",
      List.map
        (fun ((name, _, _, _, _) as e) ->
          Alcotest.test_case (name ^ " escape") `Quick (test_ownership_escape e))
        own_escapes
      @ [ Alcotest.test_case "wgmma operand is the accumulator" `Quick
            test_ownership_wgmma_alias ] );
  ]
