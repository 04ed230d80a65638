(* tawac — the Tawa compiler driver.

   Compiles `.tw` tile kernels (the textual DSL) through the Tawa
   warp-specialization pipeline, optionally dumping the transformed IR
   and the PTX-like machine code, and can execute kernels with
   recognizable signatures on the simulated H100 to check them against
   golden references and report timing. *)

open Cmdliner
open Tawa_tensor
open Tawa_ir
open Tawa_frontend
open Tawa_core
open Tawa_gpusim

(* The kernels of [path], or only the one named [kernel_name]; a
   subcommand with nothing to work on exits 1. *)
let read_kernels path kernel_name =
  let kernels = Elaborate.compile_file path in
  let kernels =
    match kernel_name with
    | None -> kernels
    | Some n -> List.filter (fun (k : Kernel.t) -> k.Kernel.name = n) kernels
  in
  if kernels = [] then begin
    Printf.eprintf "tawac: no kernels found\n";
    exit 1
  end;
  kernels

(* Every subcommand runs under [guard], so bad input exits 1 with a
   diagnostic instead of an uncaught exception: source errors as
   [FILE:LINE:COL: ...error: ...]; bad flag values, IR, code
   generation, simulator and file-system failures (an unwritable
   tunestore or trace path) as [tawac: ...]. *)
let guard ?(path = "<input>") f =
  let at (pos : Ast.pos) = Printf.sprintf "%s:%d:%d" path pos.Ast.line pos.Ast.col in
  try f () with
  | Lexer.Lex_error (msg, pos) ->
    Printf.eprintf "%s: lexical error: %s\n" (at pos) msg;
    1
  | Parser.Parse_error (msg, pos) | Elaborate.Elab_error (msg, pos) ->
    Printf.eprintf "%s: error: %s\n" (at pos) msg;
    1
  | Cli_args.Bad_flag msg ->
    Printf.eprintf "tawac: %s\n" msg;
    1
  | Verifier.Ill_formed msg ->
    Printf.eprintf "tawac: IR verification failed: %s\n" msg;
    1
  | Tawa_machine.Codegen.Codegen_error msg ->
    Printf.eprintf "tawac: code generation failed: %s\n" msg;
    1
  | Sim.Sim_error msg ->
    Printf.eprintf "tawac: simulation failed: %s\n" msg;
    1
  | Sys_error msg ->
    Printf.eprintf "tawac: %s\n" msg;
    1

(* ---------------------------- compile ----------------------------- *)

let do_compile path kernel_name d p coop persistent coarse sw naive dump_ir dump_asm check
    ids =
  guard ~path (fun () ->
    let options = Cli_args.options_of ~sw ~naive ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    let check_failed = ref false in
    List.iter
      (fun k ->
        let c = Flow.compile ~options k in
        Printf.printf "kernel @%s: %s%s, %d IR ops, %d instructions, %d B SMEM, %d mbarriers\n"
          k.Kernel.name
          (if c.Flow.warp_specialized then "warp-specialized" else "not specialized")
          (if c.Flow.coarse then " + coarse pipeline" else "")
          (Kernel.count_ops c.Flow.transformed)
          (Tawa_machine.Isa.instr_count c.Flow.program)
          (Tawa_machine.Isa.smem_bytes c.Flow.program)
          c.Flow.program.Tawa_machine.Isa.num_mbarriers;
        if check then begin
          let ds = Tawa_analysis.Diagnostic.sort (Flow.check_compiled c) in
          List.iter (fun d -> print_endline (Tawa_analysis.Diagnostic.to_string d)) ds;
          if Tawa_analysis.Diagnostic.errors ds <> [] then check_failed := true
        end;
        if dump_ir then print_string (Flow.dump_ir ~ids c);
        if dump_asm then print_string (Flow.dump_asm c))
      kernels;
    if !check_failed then 1 else 0)

(* ----------------------------- check ------------------------------- *)

let do_check path kernel_name d p coop persistent coarse =
  guard ~path (fun () ->
    let options = Cli_args.options_of ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    let failed = ref false in
    List.iter
      (fun k ->
        let c = Flow.compile ~options k in
        let ds = Tawa_analysis.Diagnostic.sort (Flow.check_compiled c) in
        List.iter (fun d -> print_endline (Tawa_analysis.Diagnostic.to_string d)) ds;
        if Tawa_analysis.Diagnostic.errors ds <> [] then failed := true
        else
          Printf.printf "kernel @%s: arefcheck clean (%s%s)\n" k.Kernel.name
            (if c.Flow.warp_specialized then "warp-specialized" else "not specialized")
            (if c.Flow.coarse then " + coarse pipeline" else ""))
      kernels;
    if !failed then 1 else 0)

(* ------------------------------ lint ------------------------------- *)

let diag_to_json (d : Tawa_analysis.Diagnostic.t) =
  let open Tawa_obs.Json in
  Obj
    [ ("check", Str d.Tawa_analysis.Diagnostic.check);
      ( "severity",
        Str
          (Tawa_analysis.Diagnostic.severity_to_string
             d.Tawa_analysis.Diagnostic.severity) );
      ( "op_id",
        match d.Tawa_analysis.Diagnostic.op with
        | Some o -> Int o.Op.oid
        | None -> Null );
      ("message", Str d.Tawa_analysis.Diagnostic.message) ]

let do_lint path kernel_name d p coop persistent coarse obs =
  guard ~path (fun () ->
    let options = Cli_args.options_of ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    let failed = ref false in
    let results =
      List.map
        (fun k ->
          let c = Flow.compile ~options k in
          let ds = Tawa_analysis.Statcheck.check c.Flow.transformed c.Flow.program in
          if Tawa_analysis.Diagnostic.errors ds <> [] then failed := true;
          (k.Kernel.name, ds))
        kernels
    in
    (match obs with
    | `Json ->
      print_endline
        (Tawa_obs.Json.to_string
           (Tawa_obs.Json.List
              (List.map
                 (fun (name, ds) ->
                   Tawa_obs.Json.Obj
                     [ ("kernel", Tawa_obs.Json.Str name);
                       ("diagnostics", Tawa_obs.Json.List (List.map diag_to_json ds)) ])
                 results)))
    | `Table ->
      List.iter
        (fun (name, ds) ->
          match ds with
          | [] -> Printf.printf "kernel @%s: statcheck clean\n" name
          | ds ->
            Printf.printf "kernel @%s: %d statcheck finding(s)\n" name (List.length ds);
            List.iter
              (fun d -> print_endline (Tawa_analysis.Diagnostic.to_string d))
              ds)
        results);
    if !failed then 1 else 0)

(* --------------------------- occupancy ----------------------------- *)

let verdict_to_json (v : Tawa_machine.Resources.verdict) =
  let open Tawa_obs.Json in
  match v with
  | Tawa_machine.Resources.Feasible _ -> Obj [ ("feasible", Bool true) ]
  | Tawa_machine.Resources.Infeasible why ->
    Obj [ ("feasible", Bool false); ("reason", Str why) ]

let occupancy_to_json (r : Tawa_analysis.Statcheck.report) =
  let open Tawa_obs.Json in
  let open Tawa_analysis.Statcheck in
  Obj
    [ ("kernel", Str r.kernel_name);
      ( "warp_groups",
        List
          (List.map
             (fun pu ->
               Obj
                 [ ("index", Int pu.pu_index);
                   ("role", Str (Op.role_to_string pu.pu_role));
                   ("coop", Int pu.pu_coop);
                   ("tensor_bytes", Int pu.pu_tensor_bytes);
                   ("regs_per_thread", Int pu.pu_regs_per_thread) ])
             r.parts) );
      ( "smem",
        Obj
          [ ("total_bytes", Int r.smem_bytes);
            ( "allocs",
              List
                (List.map
                   (fun (a : Tawa_machine.Isa.alloc) ->
                     Obj
                       [ ("id", Int a.Tawa_machine.Isa.alloc_id);
                         ("label", Str a.Tawa_machine.Isa.label);
                         ("slots", Int a.Tawa_machine.Isa.slots);
                         ("bytes_per_slot", Int a.Tawa_machine.Isa.bytes_per_slot) ])
                   r.smem_allocs) ) ] );
      ("total_regs", Int r.total_regs);
      ("verdict", verdict_to_json r.verdict);
      ("ctas_per_sm", Int r.ctas_per_sm);
      ("limiting", Str r.limiting);
      ("smem_headroom", Int r.smem_headroom);
      ("reg_headroom", Int r.reg_headroom) ]

let do_occupancy path kernel_name d p coop persistent coarse obs =
  guard ~path (fun () ->
    let options = Cli_args.options_of ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    let infeasible = ref false in
    let reports =
      List.map
        (fun k ->
          let c = Flow.compile ~options k in
          let r = Tawa_analysis.Statcheck.occupancy_report c.Flow.program in
          (match r.Tawa_analysis.Statcheck.verdict with
          | Tawa_machine.Resources.Infeasible _ -> infeasible := true
          | Tawa_machine.Resources.Feasible _ -> ());
          r)
        kernels
    in
    (match obs with
    | `Json ->
      print_endline
        (Tawa_obs.Json.to_string
           (Tawa_obs.Json.List (List.map occupancy_to_json reports)))
    | `Table ->
      List.iter
        (fun (r : Tawa_analysis.Statcheck.report) ->
          let open Tawa_analysis.Statcheck in
          Printf.printf "kernel @%s: static occupancy\n" r.kernel_name;
          List.iter
            (fun pu ->
              Printf.printf "  wg%d %-9s coop=%d  tensor %6d B  %3d regs/thread\n"
                pu.pu_index
                (Op.role_to_string pu.pu_role)
                pu.pu_coop pu.pu_tensor_bytes pu.pu_regs_per_thread)
            r.parts;
          List.iter
            (fun (a : Tawa_machine.Isa.alloc) ->
              Printf.printf "  smem%-3d %-24s %6d B x%d\n" a.Tawa_machine.Isa.alloc_id
                a.Tawa_machine.Isa.label a.Tawa_machine.Isa.bytes_per_slot
                a.Tawa_machine.Isa.slots)
            r.smem_allocs;
          Printf.printf "  total: %d B SMEM, %d registers\n" r.smem_bytes r.total_regs;
          (match r.verdict with
          | Tawa_machine.Resources.Feasible _ ->
            Printf.printf
              "  verdict: feasible, %d CTA(s)/SM (limited by %s; headroom %d B SMEM, \
               %d regs)\n"
              r.ctas_per_sm r.limiting r.smem_headroom r.reg_headroom
          | Tawa_machine.Resources.Infeasible why ->
            Printf.printf "  verdict: INFEASIBLE: %s\n" why))
        reports);
    if !infeasible then 1 else 0)

(* ------------------------------ run ------------------------------- *)

(* Infer the store-tile shape (rows, cols) from the last tma_store
   operand's tensor type; drives grid sizing for recognized
   signatures. *)
let store_tile (k : Kernel.t) =
  Op.fold_region
    (fun acc op ->
      match op.Op.opcode with
      | Op.Tma_store -> (
        match Value.ty (List.nth op.Op.operands (List.length op.Op.operands - 1)) with
        | Types.TTensor { shape = [ tm; tn ]; _ } -> Some (tm, tn)
        | _ -> acc)
      | _ -> acc)
    None k.Kernel.body

(* Recognize kernel signatures we can drive automatically. *)
let classify_signature (k : Kernel.t) =
  let tys = List.map Value.ty k.Kernel.params in
  let is_ptr = function Types.TPtr _ -> true | _ -> false in
  let is_i32 = function Types.TScalar Dtype.I32 -> true | _ -> false in
  match tys with
  | [ a; b; c; m; n; kk ]
    when is_ptr a && is_ptr b && is_ptr c && is_i32 m && is_i32 n && is_i32 kk ->
    `Gemm
  | [ q; kk; v; o; l ] when List.for_all is_ptr [ q; kk; v; o ] && is_i32 l -> `Attention
  | _ -> `Unknown

(* The launch of a recognized signature at the flag sizes: params,
   grid, flops and a label. Its pointers bind nothing, which is all a
   timing simulation reads; [bind] returns the params with the pointers
   bound to seeded inputs at the kernel's declared dtypes, and a check
   that returns the output's max rel diff vs the CPU reference with its
   tolerance. A size the store tile does not divide is rejected before
   anything runs: the grid would drop the remainder. *)
type launch = {
  params : Sim.rt list;
  grid : int * int * int;
  flops : float;
  desc : string;
  bind : unit -> Sim.rt list * (unit -> float * float);
}

let tiled flag ~tile ~what v =
  if v < 1 || v mod tile <> 0 then
    raise
      (Cli_args.Bad_flag
         (Printf.sprintf "%s must be a positive multiple of the store tile's %d %s, got %d"
            flag tile what v))

let launch_of (k : Kernel.t) ~m ~n ~kk ~l : launch option =
  let ptr_dtype i =
    match Option.map Value.ty (List.nth_opt k.Kernel.params i) with
    | Some (Types.TPtr d) -> d
    | _ -> Dtype.F16
  in
  let seeded seed i dims = Tensor.random ~dtype:(ptr_dtype i) ~seed dims in
  match classify_signature k with
  | `Gemm ->
    let tile_m, tile_n = Option.value (store_tile k) ~default:(16, 16) in
    tiled "-m (GEMM M)" ~tile:tile_m ~what:"rows" m;
    tiled "-n (GEMM N)" ~tile:tile_n ~what:"columns" n;
    let sizes = [ Sim.Rint m; Sim.Rint n; Sim.Rint kk ] in
    Some
      { params = [ Sim.Rnone; Sim.Rnone; Sim.Rnone ] @ sizes;
        grid = (m / tile_m, n / tile_n, 1);
        flops = Reference.gemm_flops ~m ~n ~k:kk;
        desc = Printf.sprintf "gemm %dx%dx%d" m n kk;
        bind =
          (fun () ->
            let a = seeded 1 0 [| m; kk |] and b = seeded 2 1 [| kk; n |] in
            let c = Tensor.create ~dtype:(ptr_dtype 2) [| m; n |] in
            ( [ Sim.Rtensor a; Sim.Rtensor b; Sim.Rtensor c ] @ sizes,
              fun () ->
                (Tensor.max_rel_diff c (Reference.gemm ~out_dtype:(ptr_dtype 2) a b), 1e-3) ))
      }
  | `Attention ->
    let tile_m, d_head = Option.value (store_tile k) ~default:(16, 8) in
    tiled "-l (sequence length)" ~tile:tile_m ~what:"rows" l;
    Some
      { params = [ Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rnone; Sim.Rint l ];
        grid = (l / tile_m, 1, 1);
        flops = Reference.attention_flops ~batch:1 ~heads:1 ~len:l ~head_dim:d_head ();
        desc = Printf.sprintf "attention L=%d d=%d" l d_head;
        bind =
          (fun () ->
            let q = seeded 1 0 [| l; d_head |] and kt = seeded 2 1 [| l; d_head |] in
            let v = seeded 3 2 [| l; d_head |] in
            let o = Tensor.create ~dtype:(ptr_dtype 3) [| l; d_head |] in
            ( [ Sim.Rtensor q; Sim.Rtensor kt; Sim.Rtensor v; Sim.Rtensor o; Sim.Rint l ],
              fun () ->
                ( Tensor.max_rel_diff o
                    (Reference.attention ~out_dtype:(ptr_dtype 3) ~q ~k:kt ~v ()),
                  2e-2 ) )) }
  | `Unknown -> None

(* A subcommand's report on one kernel is a list of pieces, each a text
   and the JSON fields that say the same. A table prints each kernel's
   texts as soon as it is done; [--obs json] prints one list holding an
   object per kernel. *)
type piece = string * (string * Tawa_obs.Json.t) list

let print_reports ~json (report : Kernel.t -> piece list) kernels =
  if json then
    print_string
      (Tawa_obs.Json.to_string
         (Tawa_obs.Json.List
            (List.map
               (fun k -> Tawa_obs.Json.Obj (List.concat_map snd (report k)))
               kernels)))
  else
    List.iter (fun k -> List.iter (fun (text, _) -> print_string text) (report k)) kernels

let unrecognized (k : Kernel.t) what : piece =
  ( Printf.sprintf "kernel @%s: unrecognized signature; %s\n" k.Kernel.name what,
    [ ("kernel", Tawa_obs.Json.Str k.Kernel.name);
      ("signature", Tawa_obs.Json.Str "unrecognized") ] )

(* The CTA profile of a timed launch: the stall-attribution and channel
   tables, or the same profile as JSON. *)
let profile_piece (t : Launch.timing) : piece =
  match t.Launch.profile with
  | None -> ("", [ ("cycles", Tawa_obs.Json.Float t.Launch.cycles) ])
  | Some prof ->
    ( Sim.stall_table prof ^ Sim.chan_table prof,
      [ ("cycles", Tawa_obs.Json.Float t.Launch.cycles);
        ("profile", Sim.profile_to_json prof) ] )

let do_run path kernel_name d p coop persistent coarse sw naive m n kk l obs =
  guard ~path (fun () ->
    let options = Cli_args.options_of ~sw ~naive ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    let cfg = Config.functional_test in
    let tcfg = Config.h100 in
    (* A [MISMATCH] is a finding: the run exits 1. *)
    let mismatch = ref false in
    let report k =
      let c = Flow.compile ~options k in
      match launch_of k ~m ~n ~kk ~l with
      | None -> [ unrecognized k "compile-only" ]
      | Some fl ->
        let params, check = fl.bind () in
        ignore (Launch.run_grid_functional ~cfg c.Flow.program ~params ~grid:fl.grid);
        let diff, tol = check () in
        let ok = diff < tol in
        if not ok then mismatch := true;
        let verdict = if ok then "OK" else "MISMATCH" in
        let verified : piece =
          ( Printf.sprintf "kernel @%s (%s): max rel diff vs reference = %.2e [%s]\n"
              k.Kernel.name fl.desc diff verdict,
            [ ("kernel", Tawa_obs.Json.Str k.Kernel.name);
              ("workload", Tawa_obs.Json.Str fl.desc);
              ("max_rel_diff", Tawa_obs.Json.Float diff);
              ("verdict", Tawa_obs.Json.Str verdict) ] )
        in
        (* A verified attention run stops there; a GEMM is also timed
           at the same shape. *)
        if classify_signature k = `Attention then [ verified ]
        else begin
          let t =
            Launch.estimate ~cfg:tcfg c.Flow.program ~params:fl.params ~grid:fl.grid
              ~flops:fl.flops
          in
          let simulated =
            Printf.sprintf "  simulated: %.2f GFLOPS, %.0f cycles, TC utilization %.0f%%\n"
              (t.Launch.tflops *. 1e3) t.Launch.cycles (100.0 *. t.Launch.tc_utilization)
          in
          let text, fields = profile_piece t in
          [ verified; (simulated ^ if obs = None then "" else text), fields ]
        end
    in
    print_reports ~json:(obs = Some `Json) report kernels;
    if !mismatch then 1 else 0)

(* ---------------------------- profile ------------------------------ *)

(* Profile a kernel: run the timing simulation of its representative
   CTA and report where every warp group's cycles went (stall
   attribution) plus per-channel occupancy. The deep-profiler views
   build on the same run: --ops attributes cycles to IR ops through the
   codegen source map, --channels reconstructs per-slot put/wait
   timelines from recorded channel events, --critical-path walks the
   recorded dependence events for the chain bounding the CTA's
   latency, and --trace writes a Chrome trace-event JSON with op and
   channel lanes. Under --obs json every view is a field of the
   kernel's object. *)
let do_profile path kernel_name d p coop persistent coarse sw naive m n kk l obs
    trace_out show_ops show_channels show_cp =
  guard ~path (fun () ->
    let options = Cli_args.options_of ~sw ~naive ~d ~p ~coop ~persistent ~coarse () in
    let kernels = read_kernels path kernel_name in
    let tcfg = Config.h100 in
    let unknown = ref false in
    let report k =
      let c = Flow.compile ~options k in
      match launch_of k ~m ~n ~kk ~l with
      | None ->
        unknown := true;
        [ unrecognized k "cannot profile" ]
      | Some { params; grid; flops; desc; _ } ->
        let t = Launch.estimate ~cfg:tcfg c.Flow.program ~params ~grid ~flops in
        let program = c.Flow.program in
        let text, fields = profile_piece t in
        let summary =
          ( Printf.sprintf
              "kernel @%s (%s): %.0f cycles end-to-end, %.2f GFLOPS, TC utilization %.0f%%\n"
              k.Kernel.name desc t.Launch.cycles
              (t.Launch.tflops *. 1e3)
              (100.0 *. t.Launch.tc_utilization)
            ^ (match t.Launch.profile with
              | Some prof -> Printf.sprintf "representative CTA: %.0f cycles\n" prof.Sim.wall
              | None -> "")
            ^ text,
            ("kernel", Tawa_obs.Json.Str k.Kernel.name) :: fields )
        in
        let ops =
          if not show_ops then []
          else
            match t.Launch.profile with
            | Some prof ->
              [ (Sim.op_table ~program prof, [ ("ops", Sim.ops_to_json ~program prof) ]) ]
            | None -> [ ("no representative-CTA profile available for --ops\n", []) ]
        in
        let recorded =
          if not (show_channels || show_cp || trace_out <> None) then []
          else begin
            (* Record the CTA [Launch.estimate] simulated. *)
            let num_programs, pid, queue =
              Launch.representative_cta ~cfg:tcfg program ~grid
            in
            let recorder = Tawa_obs.Prof.create () in
            let outcome =
              Engine.run_cta ~recorder ~cfg:tcfg ~program ~params ~num_programs ~pid
                ~pop_global:(queue ()) ()
            in
            let chan_label ch = Sim.chan_label_of ~program ch in
            let wg_label w = Sim.wg_label_of ~program w in
            let pc_label w pc = Sim.pc_label_of ~program w pc in
            let channels =
              if not show_channels then []
              else
                let spans = Tawa_obs.Prof.channel_intervals recorder ~chan_label in
                [ ( "channel timeline (puts and waits):\n"
                    ^ String.concat ""
                        (List.map
                           (fun (lane, t0, t1, label) ->
                             Printf.sprintf "  %-28s %10.1f .. %-10.1f %s\n" lane t0 t1
                               label)
                           spans),
                    [ ("channel_timeline", Tawa_obs.Prof.intervals_to_json spans) ] ) ]
            in
            let critical =
              if not show_cp then []
              else
                let wg_times =
                  Array.map (fun w -> w.Sim.p_time) outcome.Sim.profile.Sim.wg_profs
                in
                let path = Tawa_obs.Prof.critical_path recorder ~wg_times in
                [ ( Tawa_obs.Prof.render_path path ~wg_label ~chan_label ~pc_label,
                    [ ("critical_path", Tawa_obs.Prof.path_to_json path ~chan_label) ] ) ]
            in
            let trace =
              match trace_out with
              | None -> []
              | Some tpath ->
                let lanes =
                  Tawa_obs.Prof.op_intervals recorder ~wg_label ~pc_label
                  @ Tawa_obs.Prof.channel_intervals recorder ~chan_label
                in
                Tawa_obs.Trace.to_file tpath (Tawa_obs.Trace.of_intervals lanes);
                [ ( Printf.sprintf "Chrome trace written to %s (load in Perfetto)\n" tpath,
                    [ ("trace", Tawa_obs.Json.Str tpath) ] ) ]
            in
            channels @ critical @ trace
          end
        in
        (summary :: ops) @ recorded
    in
    print_reports ~json:(obs = `Json) report kernels;
    if !unknown then 1 else 0)

(* ---------------------------- autotune ----------------------------- *)

let search_stats_to_json (r : Autotune.result) =
  let open Tawa_obs.Json in
  let s = r.Autotune.stats in
  Obj
    [ ("candidates", Int s.Autotune.total);
      ("pruned", Int s.Autotune.pruned);
      ( "prune_rate",
        Float
          (if s.Autotune.total = 0 then 0.0
           else float_of_int s.Autotune.pruned /. float_of_int s.Autotune.total) );
      ("measured", Int s.Autotune.measured);
      ("from_store", Bool s.Autotune.from_store);
      ("prune_fallback", Bool s.Autotune.prune_fallback);
      ("wall_seconds", Float s.Autotune.wall_seconds);
      ( "prune_reasons",
        Obj (List.map (fun (why, n) -> (why, Int n)) r.Autotune.prune_reasons) ) ]

let measurement_to_json (m : Autotune.measurement) =
  let open Tawa_obs.Json in
  let c = m.Autotune.candidate in
  Obj
    [ ("config", Str (Autotune.candidate_to_string c));
      ("block_m", Int c.Autotune.tiles.Kernels.block_m);
      ("block_n", Int c.Autotune.tiles.Kernels.block_n);
      ("block_k", Int c.Autotune.tiles.Kernels.block_k);
      ("aref_depth", Int c.Autotune.aref_depth);
      ("mma_depth", Int c.Autotune.mma_depth);
      ("coop", Int c.Autotune.coop);
      ("persistent", Bool c.Autotune.persistent);
      ("coarse", Bool c.Autotune.coarse);
      ("strategy", Str (Flow.strategy_key c.Autotune.strategy));
      ("tflops", Float m.Autotune.tflops);
      ("cycles", Float m.Autotune.cycles) ]

let do_autotune family m n kk l causal dtype store_path obs =
  guard (fun () ->
    let dtype =
      match dtype with `F16 -> Dtype.F16 | `F8 -> Dtype.F8E4M3
    in
    let fam, desc =
      match family with
      | `Gemm ->
        Cli_args.at_least_1 "-m (GEMM M)" m;
        Cli_args.at_least_1 "-n (GEMM N)" n;
        Cli_args.at_least_1 "-k (GEMM K)" kk;
        ( Autotune.Gemm { Workloads.m; n; k = kk; dtype },
          Printf.sprintf "gemm %dx%dx%d %s" m n kk (Dtype.to_string dtype) )
      | `Attention ->
        Cli_args.at_least_1 "-l (sequence length)" l;
        ( Autotune.Attention
            { Workloads.batch = 4; heads = 32; len = l; head_dim = 128; causal;
              mha_dtype = dtype },
          Printf.sprintf "attention L=%d%s %s" l
            (if causal then " causal" else "")
            (Dtype.to_string dtype) )
    in
    let store =
      Option.map
        (fun path -> Tawa_machine.Tunestore.open_ ~name:"tawac" ~path ())
        store_path
    in
    let cfg = Config.h100 in
    let r = Autotune.search ~cfg ?store fam in
    let s = r.Autotune.stats in
    let expert = Autotune.measure ~cfg fam (Autotune.expert fam) in
    let best = r.Autotune.best in
    let ratio =
      if expert.Autotune.tflops > 0.0 then
        best.Autotune.tflops /. expert.Autotune.tflops
      else 0.0
    in
    (match obs with
    | `Json ->
      let open Tawa_obs.Json in
      print_endline
        (to_string
           (Obj
              ([ ("family", Str (Autotune.family_tag fam));
                 ("workload", Str desc);
                 ("store_key", Str (Autotune.store_key fam));
                 ("search", search_stats_to_json r);
                 ("best", measurement_to_json best);
                 ("expert", measurement_to_json expert);
                 ("tuned_vs_expert", Float ratio) ]
              @
              match store with
              | None -> []
              | Some st ->
                let ss = Tawa_machine.Tunestore.stats st in
                [ ( "store",
                    Obj
                      [ ("path", Str (Option.get store_path));
                        ("entries", Int (Tawa_machine.Tunestore.length st));
                        ("hits", Int ss.Tawa_machine.Tunestore.hits);
                        ("misses", Int ss.Tawa_machine.Tunestore.misses);
                        ("stores", Int ss.Tawa_machine.Tunestore.stores) ] ) ])))
    | `Table ->
      Printf.printf "autotune %s\n" desc;
      if s.Autotune.from_store then
        Printf.printf
          "  served from the tuned-config store: 0 candidates measured\n"
      else begin
        Printf.printf
          "  candidates %d   pruned %d (%.1f%%)   measured %d   wall %.2f s\n"
          s.Autotune.total s.Autotune.pruned
          (if s.Autotune.total = 0 then 0.0
           else 100.0 *. float_of_int s.Autotune.pruned /. float_of_int s.Autotune.total)
          s.Autotune.measured s.Autotune.wall_seconds;
        List.iter
          (fun (why, cnt) -> Printf.printf "    pruned %3d: %s\n" cnt why)
          r.Autotune.prune_reasons;
        if s.Autotune.prune_fallback then
          Printf.printf
          "  note: the static occupancy model rejected every candidate (it \
           is conservative for this family); all candidates were measured\n"
      end;
      Printf.printf "  best:   %-42s %8.1f TFLOPS\n"
        (Autotune.candidate_to_string best.Autotune.candidate)
        best.Autotune.tflops;
      Printf.printf "  expert: %-42s %8.1f TFLOPS   tuned/expert %.3fx\n"
        (Autotune.candidate_to_string expert.Autotune.candidate)
        expert.Autotune.tflops ratio;
      match (store, store_path) with
      | Some st, Some path ->
        let ss = Tawa_machine.Tunestore.stats st in
        Printf.printf "  store:  %s: %d entr%s (hits %d, misses %d, stores %d)\n"
          path
          (Tawa_machine.Tunestore.length st)
          (if Tawa_machine.Tunestore.length st = 1 then "y" else "ies")
          ss.Tawa_machine.Tunestore.hits ss.Tawa_machine.Tunestore.misses
          ss.Tawa_machine.Tunestore.stores
      | _ -> ());
    0)

let family_arg =
  let family_conv = Arg.enum [ ("gemm", `Gemm); ("attention", `Attention) ] in
  Arg.(value & opt family_conv `Gemm
       & info [ "family" ] ~docv:"FAMILY"
           ~doc:"Workload family to tune: $(b,gemm) (uses -m/-n/-k) or $(b,attention) \
                 (uses -l and $(b,--causal)).")

let causal_arg =
  Arg.(value & flag & info [ "causal" ] ~doc:"Causal attention (attention family only).")

let dtype_arg =
  let dtype_conv = Arg.enum [ ("f16", `F16); ("f8", `F8) ] in
  Arg.(value & opt dtype_conv `F16
       & info [ "dtype" ] ~docv:"DTYPE" ~doc:"Element type: $(b,f16) or $(b,f8).")

let store_arg =
  Arg.(value & opt (some string) None
       & info [ "store" ] ~docv:"PATH"
           ~doc:"Persistent tuned-config store (TSV). A prior result for the same \
                 kernel fingerprint and shape bucket is served without re-measuring; \
                 fresh results are saved.")

(* ----------------------------- graph ------------------------------- *)

(* Execute the demo task graphs through the wave scheduler: instantiate
   once (compile + decode + tunestore lookup per node), replay N times
   against the shared domain pool, and verify bit-identically against
   the serialized one-launch-per-node path. *)

let graph_verify_tol = 2e-2

let do_graph demo_name replays store_path obs trace_path =
  guard (fun () ->
    Cli_args.at_least_1 "--replays" replays;
    let module Graph = Tawa_graph.Graph in
    let module Gallery = Tawa_graph.Gallery in
    let store =
      Option.map
        (fun path -> Tawa_machine.Tunestore.open_ ~name:"tawac" ~path ())
        store_path
    in
    let demos =
      if demo_name = "all" then Gallery.all
      else
        match
          List.find_opt (fun (n, _, _) -> n = demo_name) Gallery.all
        with
        | Some d -> [ d ]
        | None ->
          Printf.eprintf "tawac: unknown demo %s (have: %s)\n" demo_name
            (String.concat ", " (List.map (fun (n, _, _) -> n) Gallery.all));
          exit 1
    in
    let failed = ref false in
    let sections =
      List.map
        (fun (name, title, build) ->
          let demo = build () in
          let t0 = Unix.gettimeofday () in
          let inst = Graph.instantiate ?store demo.Gallery.d_graph in
          let first = Graph.replay inst in
          let cold = Unix.gettimeofday () -. t0 in
          let runs = List.init (replays - 1) (fun _ -> Graph.replay inst) in
          let warm =
            List.fold_left
              (fun acc (r : Graph.run) -> Float.min acc r.Graph.r_seconds)
              first.Graph.r_seconds runs
          in
          (* An independent build of the same demo (same seeds) down the
             serialized path: per-node launches, no wave batching. *)
          let demo_s = build () in
          let inst_s = Graph.instantiate ?store demo_s.Gallery.d_graph in
          let serial = Graph.run_serial inst_s in
          let identical =
            List.for_all2
              (fun (_, got) (_, want) -> Tensor.equal got want)
              demo.Gallery.d_outputs demo_s.Gallery.d_outputs
          in
          let rel = Gallery.check demo in
          let ok = identical && rel < graph_verify_tol in
          if not ok then failed := true;
          let model = Graph.overlap_model inst first in
          (match trace_path with
          | None -> ()
          | Some path ->
            let path =
              if demo_name = "all" then
                let base = Filename.remove_extension path in
                let ext = Filename.extension path in
                Printf.sprintf "%s-%s%s" base name ext
              else path
            in
            Tawa_obs.Trace.to_file path (Graph.trace_events inst first);
            if obs = `Table then Printf.printf "wrote %s\n" path);
          (name, title, demo, inst, first, serial, cold, warm, model, identical,
           rel, ok))
        demos
    in
    (match obs with
    | `Json ->
      let open Tawa_obs.Json in
      print_endline
        (to_string
           (Obj
              (List.map
                 (fun ( name, title, _demo, inst, first, serial, cold, warm,
                        model, identical, rel, ok ) ->
                   ( name,
                     Obj
                       [ ("title", Str title);
                         ("nodes", Int (Graph.num_nodes inst.Graph.graph));
                         ( "edges",
                           Int (List.length inst.Graph.graph.Graph.edges) );
                         ("waves", Int (Graph.num_waves inst.Graph.graph));
                         ("replays", Int replays);
                         ("cold_seconds", Float cold);
                         ("warm_seconds", Float warm);
                         ( "replay_speedup",
                           Float (if warm > 0.0 then cold /. warm else 1.0) );
                         ("serial_wall_seconds", Float serial.Graph.r_seconds);
                         ("graph_wall_seconds", Float first.Graph.r_seconds);
                         ("model_serial_cycles", Float model.Graph.m_serial_cycles);
                         ("model_graph_cycles", Float model.Graph.m_graph_cycles);
                         ("model_speedup", Float model.Graph.m_speedup);
                         ( "per_wave",
                           List
                             (Array.to_list
                                (Array.map
                                   (fun (w : Graph.wave_model) ->
                                     Obj
                                       [ ("wave", Int w.Graph.wm_wave);
                                         ("ctas", Int w.Graph.wm_ctas);
                                         ("sm_rounds", Int w.Graph.wm_sm_waves);
                                         ("cycles", Float w.Graph.wm_cycles);
                                         ("occupancy", Float w.Graph.wm_occupancy) ])
                                   model.Graph.m_waves)) );
                         ("outputs_bit_identical_to_serial", Bool identical);
                         ("max_rel_diff_vs_reference", Float rel);
                         ("verified", Bool ok) ] ))
                 sections)))
    | `Table ->
      List.iter
        (fun ( name, title, demo, inst, first, serial, cold, warm, model,
               identical, rel, ok ) ->
          Printf.printf "graph %s: %s\n  %s\n" name title
            (Graph.summary demo.Gallery.d_graph);
          Array.iter
            (fun (w : Graph.wave_model) ->
              let members =
                first.Graph.r_waves.(w.Graph.wm_wave).Graph.wr_nodes
              in
              Printf.printf
                "  wave %d: %-34s %4d CTAs  %d SM round%s  occupancy %.2f\n"
                w.Graph.wm_wave
                (String.concat " "
                   (Array.to_list
                      (Array.map
                         (fun ni ->
                           let nr = first.Graph.r_nodes.(ni) in
                           if Graph.node_tuned inst ni then
                             nr.Graph.nr_name ^ "*"
                           else nr.Graph.nr_name)
                         members)))
                w.Graph.wm_ctas w.Graph.wm_sm_waves
                (if w.Graph.wm_sm_waves = 1 then "" else "s")
                w.Graph.wm_occupancy)
            model.Graph.m_waves;
          Printf.printf
            "  model: serial %.0f cycles, graph %.0f cycles, overlap speedup %.2fx\n"
            model.Graph.m_serial_cycles model.Graph.m_graph_cycles
            model.Graph.m_speedup;
          Printf.printf
            "  wall:  instantiate+first replay %.4f s, warm replay %.4f s \
             (best of %d), serial path %.4f s\n"
            cold warm replays serial.Graph.r_seconds;
          (match store with
          | None -> ()
          | Some _ ->
            let tuned =
              List.filter (Graph.node_tuned inst)
                (List.init (Graph.num_nodes inst.Graph.graph) Fun.id)
            in
            Printf.printf "  store: %d node%s auto-configured (*)\n"
              (List.length tuned)
              (if List.length tuned = 1 then "" else "s"));
          Printf.printf
            "  verify: %s serialized path, max rel diff vs CPU reference \
             %.2e  [%s]\n"
            (if identical then "bit-identical to" else "DIVERGES from")
            rel
            (if ok then "ok" else "FAIL"))
        sections);
    if !failed then 1 else 0)

(* --------------------------- cmdliner ------------------------------ *)

(* Shared flags live in {!Cli_args}; only the flags unique to one
   subcommand are defined here. *)

let dump_ir_arg = Arg.(value & flag & info [ "dump-ir" ] ~doc:"Print the transformed IR.")
let dump_asm_arg = Arg.(value & flag & info [ "dump-asm" ] ~doc:"Print the PTX-like machine code.")

let check_arg =
  Arg.(value & flag
       & info [ "check" ]
           ~doc:"Run the arefcheck protocol analyses on the compiled kernel and fail on errors.")

let ids_arg =
  Arg.(value & flag
       & info [ "ids" ]
           ~doc:"With $(b,--dump-ir), annotate every op with its stable id so arefcheck \
                 diagnostics can be correlated with the dump.")

let compile_cmd =
  let doc = "compile tile kernels through the Tawa pipeline" in
  Cmd.v (Cmd.info "compile" ~doc)
    Term.(
      const do_compile $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse $ Cli_args.sw
      $ Cli_args.naive $ dump_ir_arg $ dump_asm_arg $ check_arg $ ids_arg)

let check_cmd =
  let doc = "statically verify the aref protocol of compiled kernels (arefcheck)" in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(
      const do_check $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse)

let lint_cmd =
  let doc =
    "run the statcheck performance linter (dead stores, over-deep MMA pipelines, \
     infeasible occupancy)"
  in
  Cmd.v (Cmd.info "lint" ~doc)
    Term.(
      const do_lint $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse $ Cli_args.obs)

let occupancy_cmd =
  let doc =
    "report the static register/SMEM occupancy model: per-warp-group footprint, SMEM \
     allocations, CTAs/SM and the limiting resource"
  in
  Cmd.v (Cmd.info "occupancy" ~doc)
    Term.(
      const do_occupancy $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse $ Cli_args.obs)

let run_cmd =
  let doc = "compile and execute kernels on the simulated H100" in
  Cmd.v (Cmd.info "run" ~doc)
    Term.(
      const do_run $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse $ Cli_args.sw
      $ Cli_args.naive $ Cli_args.m () $ Cli_args.n () $ Cli_args.k () $ Cli_args.l ()
      $ Cli_args.obs_opt)

let profile_cmd =
  let doc =
    "profile kernels: per-warp-group stall attribution, channel occupancy, and \
     optional Chrome trace export"
  in
  Cmd.v (Cmd.info "profile" ~doc)
    Term.(
      const do_profile $ Cli_args.file $ Cli_args.kernel $ Cli_args.d $ Cli_args.p
      $ Cli_args.coop $ Cli_args.persistent $ Cli_args.coarse $ Cli_args.sw
      $ Cli_args.naive $ Cli_args.m () $ Cli_args.n () $ Cli_args.k () $ Cli_args.l ()
      $ Cli_args.obs $ Cli_args.trace $ Cli_args.ops
      $ Cli_args.channels $ Cli_args.critical_path)

let autotune_cmd =
  let doc =
    "search the configuration space of a workload family (tile shape, aref depth D, \
     MMA depth P, cooperative warp groups, persistence, coarse pipeline, lowering \
     strategy): statically prune with the occupancy model, measure survivors on the \
     timing simulator over the domain pool, and compare against the hand-scheduled \
     expert config"
  in
  Cmd.v (Cmd.info "autotune" ~doc)
    Term.(
      const do_autotune $ family_arg $ Cli_args.m ~default:8192 ()
      $ Cli_args.n ~default:8192 () $ Cli_args.k ~default:4096 ()
      $ Cli_args.l ~default:4096 () $ causal_arg $ dtype_arg $ store_arg
      $ Cli_args.obs)

let graph_cmd =
  let doc =
    "execute multi-kernel task graphs: infer tensor dependencies from kernel \
     read/write sets, batch ready nodes into waves over the shared domain pool, \
     replay the decoded graph without re-compiling or re-decoding, and verify \
     bit-identically against serialized launches"
  in
  Cmd.v (Cmd.info "graph" ~doc)
    Term.(
      const do_graph $ Cli_args.demo $ Cli_args.replays $ store_arg
      $ Cli_args.obs $ Cli_args.trace)

let () =
  let doc = "Tawa: automatic warp specialization for (simulated) modern GPUs" in
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "tawac" ~doc ~version:"1.0.0")
          [ compile_cmd; check_cmd; lint_cmd; occupancy_cmd; run_cmd; profile_cmd;
            autotune_cmd; graph_cmd ]))
