(** Discrete-event simulation of one CTA on one SM: the vocabulary
    shared by the execution engine ({!Decode}, scheduled by
    {!Engine.run_decoded}), the launch model ({!Launch}) and the
    reports.

    Each warp group is an interpreter over its instruction stream with
    a local clock. Asynchronous units (the TMA engine, the tensor-core
    pipe, cp.async rings) compute completion times at issue; waiters
    either time-warp forward to an already-determined completion or
    block until another warp group materializes the event. If every
    live warp group is blocked, the protocol has deadlocked and the
    simulator reports it — this is how the D >= P feasibility boundary
    of Fig. 11 manifests.

    In functional mode tile payloads are real tensors, so simulated
    outputs can be checked against the CPU reference; in timing mode
    payload math is skipped (control flow never depends on tile data in
    this IR).

    This module holds only what the engine and its readers share:
    runtime values, blocked states, run statistics and outcomes,
    tile-cost helpers, and the per-warp-group / per-channel / per-op
    profiles with their renderers. The tree-walking interpreter the
    engine is pinned to, bit for bit, is test-only ([test/oracle.ml]). *)

open Tawa_tensor
open Tawa_ir
open Tawa_machine

exception Sim_error of string

type rt =
  | Rint of int
  | Rfloat of float
  | Rbool of bool
  | Rtensor of Tensor.t
  | Rdesc of desc
  | Rnone

and desc = { buffer : Tensor.t option; ddtype : Dtype.t }

type blocked =
  | On_mbar of { bar : int; target : int }
  | On_ring of { ring : int; target : int }
  | On_fence

type wg_state = Running | Blocked of blocked | Finished

type stats = {
  mutable tc_busy : float;
  mutable tma_busy : float;
  mutable tma_bytes : float;
  mutable wgmma_count : int;
  mutable tma_count : int;
  mutable steps : int;
}

let bytes_of ~rows ~cols dtype = rows * cols * Dtype.size_bytes dtype

let tile_cost (cfg : Config.t) coop ~elems ~per_cycle =
  Float.of_int elems /. per_cycle /. Float.of_int coop

(* ------------------------- profiles ------------------------------- *)

(** Per-warp-group stall attribution. [p_buckets] has [Stall.num]
    entries; the idle slot is wall-clock minus the WG's final local
    time, so the bucket sum of every WG equals the CTA's total cycles. *)
type wg_prof = {
  p_index : int;
  p_role : string;
  p_time : float;
  p_busy : float;
  p_instret : int;
  p_buckets : float array;
  p_cells : float array;
      (* per-(pc, bucket) attribution, [Stall.num] entries per
         instruction; trailing idle is charged to the cell of the
         instruction the WG finished on, so the cells of a WG sum to
         its bucket totals (up to float re-association). *)
}

(** Per-channel (mbarrier or aref ring) occupancy. *)
type chan_prof = {
  c_kind : string; (* "mbar" | "ring" *)
  c_id : int;
  c_arrivals : int;
  c_completions : int;
  c_max_pending : int;
  c_max_inflight : int;
  c_wait : float; (* total WG-cycles blocked on this channel *)
}

type profile = { wall : float; wg_profs : wg_prof array; chan_profs : chan_prof array }

let chan_profile kind id (b : Mbarrier.t) wait =
  {
    c_kind = kind;
    c_id = id;
    c_arrivals = Mbarrier.arrivals_total b;
    c_completions = Mbarrier.completions_total b;
    c_max_pending = Mbarrier.max_pending b;
    c_max_inflight = Mbarrier.max_inflight b;
    c_wait = wait;
  }

(* Channel occupancy from an engine's barrier state; shared by
   {!Decode.profile_of_ctx} and the test oracle. *)
let chan_profiles ~(mbars : Mbarrier.t array) ~(rings : Mbarrier.t array)
    ~(num_rings : int) ~(mbar_wait : float array) ~(ring_wait : float array) :
    chan_prof array =
  Array.append
    (Array.mapi (fun i b -> chan_profile "mbar" i b mbar_wait.(i)) mbars)
    (Array.init num_rings (fun i -> chan_profile "ring" i rings.(i) ring_wait.(i)))

let profile_to_json (p : profile) : Tawa_obs.Json.t =
  let open Tawa_obs in
  Json.Obj
    [
      ("wall_cycles", Json.Float p.wall);
      ( "warp_groups",
        Json.List
          (Array.to_list p.wg_profs
          |> List.map (fun w ->
                 Json.Obj
                   [
                     ("index", Json.Int w.p_index);
                     ("role", Json.Str w.p_role);
                     ("cycles", Json.Float w.p_time);
                     ("busy", Json.Float w.p_busy);
                     ("instructions", Json.Int w.p_instret);
                     ( "stall",
                       Json.Obj
                         (Array.to_list
                            (Array.mapi
                               (fun i c -> (Stall.name_of_index i, Json.Float c))
                               w.p_buckets)) );
                   ])) );
      ( "channels",
        Json.List
          (Array.to_list p.chan_profs
          |> List.map (fun c ->
                 Json.Obj
                   [
                     ("kind", Json.Str c.c_kind);
                     ("id", Json.Int c.c_id);
                     ("arrivals", Json.Int c.c_arrivals);
                     ("completions", Json.Int c.c_completions);
                     ("max_pending", Json.Int c.c_max_pending);
                     ("max_inflight", Json.Int c.c_max_inflight);
                     ("wait_cycles", Json.Float c.c_wait);
                   ])) );
    ]

let stall_table (p : profile) : string =
  let open Tawa_obs in
  let fc x = Printf.sprintf "%.1f" x in
  let rows =
    Array.to_list p.wg_profs
    |> List.map (fun w ->
           let sum = Array.fold_left ( +. ) 0.0 w.p_buckets in
           [ Printf.sprintf "WG%d" w.p_index; w.p_role ]
           @ (Array.to_list w.p_buckets |> List.map fc)
           @ [ fc sum ])
  in
  Tbl.render
    ~header:([ "wg"; "role" ] @ Array.to_list Stall.names @ [ "total" ])
    rows

let chan_table (p : profile) : string =
  let rows =
    Array.to_list p.chan_profs
    |> List.map (fun c ->
           [
             c.c_kind;
             string_of_int c.c_id;
             string_of_int c.c_arrivals;
             string_of_int c.c_completions;
             string_of_int c.c_max_pending;
             string_of_int c.c_max_inflight;
             Printf.sprintf "%.1f" c.c_wait;
           ])
  in
  Tawa_obs.Tbl.render
    ~header:
      [ "kind"; "id"; "arrivals"; "completions"; "max-pending"; "max-inflight"; "wait-cycles" ]
    rows

(* ----------------------- per-op attribution ----------------------- *)

(** A hot-op row: attribution cells aggregated over every WG of the
    profile, keyed by the codegen op whose lowering emitted the
    instruction ([Isa.srcmap]), and mapped back to the front-end op it
    descends from via the "tawa.src" provenance attr that
    [Isa.op_meta] records. oid [-1] collects scaffolding instructions
    emitted outside any op (loop latches, stream prologues). *)
type op_prof = {
  o_oid : int;
  o_name : string; (* opcode name; "-" for scaffolding *)
  o_src : int; (* front-end op id; -1 when unknown *)
  o_cycles : float; (* total cycles across all WGs *)
  o_buckets : float array;
}

let per_op ~(program : Isa.program) (p : profile) : op_prof array =
  let num = Tawa_obs.Stall.num in
  let tbl : (int, float array) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun (w : wg_prof) ->
      let sm = Isa.srcmap program w.p_index in
      let n = Array.length w.p_cells / num in
      for pc = 0 to n - 1 do
        let oid = if pc < Array.length sm then sm.(pc) else -1 in
        let row =
          match Hashtbl.find_opt tbl oid with
          | Some r -> r
          | None ->
            let r = Array.make num 0.0 in
            Hashtbl.add tbl oid r;
            r
        in
        for b = 0 to num - 1 do
          row.(b) <- row.(b) +. w.p_cells.((pc * num) + b)
        done
      done)
    p.wg_profs;
  let rows =
    Hashtbl.fold
      (fun oid row acc ->
        let total = Array.fold_left ( +. ) 0.0 row in
        if total = 0.0 then acc
        else
          let name, src =
            match Isa.op_meta program oid with
            | Some (n, s) -> (n, s)
            | None -> ((if oid < 0 then "-" else Printf.sprintf "op%d" oid), -1)
          in
          {
            o_oid = oid;
            o_name = name;
            o_src = src;
            o_cycles = total;
            o_buckets = row;
          }
          :: acc)
      tbl []
  in
  Array.of_list
    (List.sort
       (fun a b ->
         match compare b.o_cycles a.o_cycles with
         | 0 -> compare a.o_oid b.o_oid
         | c -> c)
       rows)

(* Every WG accounts for [wall] cycles (idle included), so the total
   attributable pool is wall × WG-count — the conservation invariant. *)
let op_pool (p : profile) =
  Float.max 1e-9 (p.wall *. Float.of_int (Array.length p.wg_profs))

let op_table ?(top = 12) ~(program : Isa.program) (p : profile) : string =
  let ops = per_op ~program p in
  let pool = op_pool p in
  let shown = Array.sub ops 0 (min top (Array.length ops)) in
  let fc x = Printf.sprintf "%.1f" x in
  let rows =
    Array.to_list shown
    |> List.map (fun o ->
           [
             (if o.o_oid < 0 then "-" else string_of_int o.o_oid);
             o.o_name;
             (if o.o_src < 0 then "-" else string_of_int o.o_src);
             fc o.o_cycles;
             Printf.sprintf "%.1f%%" (100.0 *. o.o_cycles /. pool);
           ]
           @ (Array.to_list o.o_buckets |> List.map fc))
  in
  Tawa_obs.Tbl.render
    ~header:
      ([ "op"; "opcode"; "src"; "cycles"; "share" ]
      @ Array.to_list Tawa_obs.Stall.names)
    rows

(** Every row of {!per_op} as JSON (the table shows the top ones):
    [op] and [src] are [null] where the table prints "-", [share] is a
    fraction of the attributable pool. *)
let ops_to_json ~(program : Isa.program) (p : profile) : Tawa_obs.Json.t =
  let open Tawa_obs in
  let pool = op_pool p in
  let id i = if i < 0 then Json.Null else Json.Int i in
  Json.List
    (Array.to_list (per_op ~program p)
    |> List.map (fun o ->
           Json.Obj
             [
               ("op", id o.o_oid);
               ("opcode", Json.Str o.o_name);
               ("src", id o.o_src);
               ("cycles", Json.Float o.o_cycles);
               ("share", Json.Float (o.o_cycles /. pool));
               ( "stall",
                 Json.Obj
                   (Array.to_list
                      (Array.mapi
                         (fun i c -> (Stall.name_of_index i, Json.Float c))
                         o.o_buckets)) );
             ]))

(* ------------------------ profiler labeling ----------------------- *)

(* The recorder stores dense channel ids (mbarrier [i] = channel [i],
   ring [r] = channel [num_mbarriers + r]); these helpers translate
   them — and warp-group / pc coordinates — into the human names the
   renderers in {!Tawa_obs.Prof} ask for. *)

let chan_label_of ~(program : Isa.program) chan =
  if chan < program.Isa.num_mbarriers then Isa.mbar_label program chan
  else Isa.ring_label program (chan - program.Isa.num_mbarriers)

let wg_label_of ~(program : Isa.program) wg =
  match List.nth_opt program.Isa.streams wg with
  | Some s -> Printf.sprintf "WG%d (%s)" wg (Op.role_to_string s.Isa.role)
  | None -> Printf.sprintf "WG%d" wg

let pc_label_of ~(program : Isa.program) wg pc =
  match List.nth_opt program.Isa.streams wg with
  | Some s when pc >= 0 && pc < Array.length s.Isa.instrs ->
    let dis = Isa.to_string s.Isa.instrs.(pc) in
    let sm = Isa.srcmap program wg in
    let oid = if pc < Array.length sm then sm.(pc) else -1 in
    (match if oid >= 0 then Isa.op_meta program oid else None with
    | Some (name, _src) -> Printf.sprintf "%s <%s>" dis name
    | None -> dis)
  | _ -> Printf.sprintf "pc%d" pc

(** What one simulated CTA reports. *)
type outcome = { cycles : float; stats : stats; instructions : int; profile : profile }
