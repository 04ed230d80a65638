(** Deep-profiling event recorder (DESIGN.md §15).

    A [Prof.t] is an optional sink the simulator feeds while a
    CTA runs: channel completions (mbarrier phase completions and
    cp.async ring arrivals), wait spans (a warp group's blocked window
    on a channel, from the clock it froze at to the clock it resumed
    at), channel resets, and retired-op intervals. From those four
    event streams this module reconstructs the paper's
    producer/consumer pipeline picture:

    - per-channel timeline lanes for the Chrome-trace export
      ({!channel_intervals}, {!op_intervals});
    - the critical path — a longest-path walk over the recorded
      dependence events (op completion → mbarrier arrive → waiter
      wake) with per-edge slack ({!critical_path}).

    Channel ids are dense: mbarrier [i] is channel [i]; aref ring [r]
    is channel [num_mbars + r] (the caller owns the offset). The module
    knows nothing about the simulator: it stores plain numbers and
    renders through caller-supplied labeling functions, so it lives in
    [tawa_obs] with zero dependencies. *)

type completion = {
  cp_chan : int;
  cp_n : int; (* completion ordinal within the channel's current epoch *)
  cp_time : float; (* when the phase completed (arrival high-water) *)
  cp_wg : int; (* warp group that issued the completing arrival *)
  cp_pc : int; (* pc of the issuing instruction *)
  cp_issue : float; (* issuing WG's clock at issue *)
}

type wait = {
  wt_chan : int;
  wt_wg : int;
  wt_pc : int;
  wt_target : int;
  wt_start : float; (* waiter's clock when the wait began *)
  wt_ready : float; (* channel completion time that satisfied it *)
  wt_resume : float; (* waiter's clock after the sync cost *)
}

type reset = { rs_chan : int; rs_time : float }

type opspan = { op_wg : int; op_pc : int; op_t0 : float; op_t1 : float }

type t = {
  mutable completions : completion list;
  mutable waits : wait list;
  mutable resets : reset list;
  mutable ops : opspan list;
}

let create () = { completions = []; waits = []; resets = []; ops = [] }

let record_completion r ~chan ~n ~time ~wg ~pc ~issue =
  r.completions <-
    { cp_chan = chan; cp_n = n; cp_time = time; cp_wg = wg; cp_pc = pc;
      cp_issue = issue }
    :: r.completions

let record_wait r ~chan ~wg ~pc ~target ~start ~ready ~resume =
  r.waits <-
    { wt_chan = chan; wt_wg = wg; wt_pc = pc; wt_target = target;
      wt_start = start; wt_ready = ready; wt_resume = resume }
    :: r.waits

let record_reset r ~chan ~time =
  r.resets <- { rs_chan = chan; rs_time = time } :: r.resets

let record_op r ~wg ~pc ~t0 ~t1 =
  r.ops <- { op_wg = wg; op_pc = pc; op_t0 = t0; op_t1 = t1 } :: r.ops

(* ------------------------- timeline lanes ------------------------- *)

(* Deterministic ordering for rendering: recording order is reversed
   (lists are consed), so sort by time then discriminants. *)
let by_completion a b =
  match compare a.cp_time b.cp_time with
  | 0 -> ( match compare a.cp_chan b.cp_chan with 0 -> compare a.cp_n b.cp_n | c -> c)
  | c -> c

let by_wait a b =
  match compare a.wt_start b.wt_start with
  | 0 -> (
    match compare a.wt_chan b.wt_chan with 0 -> compare a.wt_wg b.wt_wg | c -> c)
  | c -> c

(** Chrome-trace intervals for every channel with recorded activity:
    one lane per channel carrying "put" spans (producer issue →
    completion) and "wait" spans (consumer blocked window). Fed to
    {!Trace.of_intervals}. *)
let channel_intervals r ~(chan_label : int -> string) :
    (string * float * float * string) list =
  let lane c = "chan: " ^ chan_label c in
  let puts =
    List.sort by_completion r.completions
    |> List.filter_map (fun c ->
           if c.cp_time > c.cp_issue then
             Some
               ( lane c.cp_chan,
                 c.cp_issue,
                 c.cp_time,
                 Printf.sprintf "put#%d (WG%d)" c.cp_n c.cp_wg )
           else None)
  in
  let waits =
    List.sort by_wait r.waits
    |> List.filter_map (fun w ->
           if w.wt_ready > w.wt_start then
             Some
               ( lane w.wt_chan,
                 w.wt_start,
                 w.wt_ready,
                 Printf.sprintf "wait>=%d (WG%d)" w.wt_target w.wt_wg )
           else None)
  in
  puts @ waits

(** [(lane, t0, t1, label)] intervals, as {!channel_intervals} returns
    them, as JSON. *)
let intervals_to_json (spans : (string * float * float * string) list) : Json.t =
  Json.List
    (List.map
       (fun (lane, t0, t1, label) ->
         Json.Obj
           [
             ("lane", Json.Str lane);
             ("t0", Json.Float t0);
             ("t1", Json.Float t1);
             ("label", Json.Str label);
           ])
       spans)

(** Chrome-trace intervals for retired ops, one lane per warp group.
    [pc_label wg pc] names the instruction (typically its disassembly
    or source-op name). *)
let op_intervals r ~(wg_label : int -> string)
    ~(pc_label : int -> int -> string) : (string * float * float * string) list
    =
  let by a b =
    match compare a.op_t0 b.op_t0 with
    | 0 -> ( match compare a.op_wg b.op_wg with 0 -> compare a.op_pc b.op_pc | c -> c)
    | c -> c
  in
  List.sort by r.ops
  |> List.filter_map (fun o ->
         if o.op_t1 > o.op_t0 then
           Some (wg_label o.op_wg, o.op_t0, o.op_t1, pc_label o.op_wg o.op_pc)
         else None)

(* ------------------------- critical path ------------------------- *)

(** One step of the critical path, listed from kernel end backwards. A
    step is a segment of execution on one warp group plus the edge
    through which the segment was entered (from its past). *)
type path_step = {
  st_wg : int; (* the segment's warp group *)
  st_t0 : float; (* segment start: wake/launch time *)
  st_t1 : float; (* segment end: the dependent event downstream *)
  st_chan : int; (* channel edge ending the segment at [st_t1]; -1 at the path head *)
  st_consumer : int; (* WG woken by that edge; -1 at the path head *)
  st_edge_latency : float; (* producer issue → consumer resume, 0.0 at head *)
  st_slack : float; (* total slack of waits the walk skipped inside the segment *)
  st_top_pc : int; (* dominant retired op (pc) inside the segment; -1 unknown *)
}

(* The completion that satisfied a wait: same channel, completion time
   equal to the wait's ready time (the engines copy it verbatim); on
   ties or drift, the latest completion at or before ready. *)
let completion_for r w =
  let best = ref None in
  List.iter
    (fun c ->
      if c.cp_chan = w.wt_chan && c.cp_time <= w.wt_ready +. 1e-9 then
        match !best with
        | Some b when b.cp_time >= c.cp_time -> ()
        | _ -> best := Some c)
    r.completions;
  !best

let dominant_pc r wg t0 t1 =
  let tbl : (int, float) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (fun o ->
      if o.op_wg = wg then
        let lo = Float.max o.op_t0 t0 and hi = Float.min o.op_t1 t1 in
        if hi > lo then
          Hashtbl.replace tbl o.op_pc
            ((match Hashtbl.find_opt tbl o.op_pc with Some v -> v | None -> 0.0)
            +. (hi -. lo)))
    r.ops;
  let best_pc = ref (-1) and best = ref 0.0 in
  Hashtbl.iter
    (fun pc v ->
      if v > !best || (v = !best && !best_pc >= 0 && pc < !best_pc) then begin
        best := v;
        best_pc := pc
      end)
    tbl;
  !best_pc

(** Longest-path walk backwards from the warp group that finishes last.
    Within the current WG, the walk looks for the latest wait that was
    genuinely blocked (data arrived after the WG was ready for it) at
    or before the cursor; such a wait is a zero-slack channel edge, and
    the walk jumps to the producing WG at its issue time. Waits whose
    data was already there when checked are skipped, their slack
    (check time − ready time) accumulated into the segment. The walk
    ends when a WG's history holds no blocked wait — the path head runs
    from launch. *)
let critical_path r ~(wg_times : float array) : path_step list =
  let n = Array.length wg_times in
  if n = 0 then []
  else begin
    let wg = ref 0 in
    for i = 1 to n - 1 do
      if wg_times.(i) > wg_times.(!wg) then wg := i
    done;
    let steps = ref [] in
    let cursor = ref wg_times.(!wg) in
    let chan = ref (-1) in
    let consumer = ref (-1) in
    let latency = ref 0.0 in
    let fuel = ref 10_000 in
    let continue = ref true in
    while !continue do
      decr fuel;
      (* Latest blocked wait by !wg resolving at or before the cursor;
         slack of every skipped (non-blocked) wait in the window. *)
      let best = ref None in
      List.iter
        (fun w ->
          if w.wt_wg = !wg && w.wt_resume <= !cursor +. 1e-9 then
            if w.wt_ready > w.wt_start then (
              match !best with
              | Some b when b.wt_resume >= w.wt_resume -> ()
              | _ -> best := Some w))
        r.waits;
      match !best with
      | Some w when !fuel > 0 -> (
        let slack = ref 0.0 in
        List.iter
          (fun s ->
            if
              s.wt_wg = !wg
              && s.wt_resume <= !cursor +. 1e-9
              && s.wt_resume > w.wt_resume
              && s.wt_ready <= s.wt_start
            then slack := !slack +. (s.wt_start -. s.wt_ready))
          r.waits;
        steps :=
          {
            st_wg = !wg;
            st_t0 = w.wt_resume;
            st_t1 = !cursor;
            st_chan = !chan;
            st_consumer = !consumer;
            st_edge_latency = !latency;
            st_slack = !slack;
            st_top_pc = dominant_pc r !wg w.wt_resume !cursor;
          }
          :: !steps;
        chan := w.wt_chan;
        consumer := !wg;
        match completion_for r w with
        | Some c when c.cp_issue < w.wt_resume ->
          latency := w.wt_resume -. c.cp_issue;
          wg := c.cp_wg;
          cursor := c.cp_issue
        | _ ->
          (* No producer recorded (e.g. pre-arrived phase): the edge
             terminates the walk at the wait itself. *)
          latency := 0.0;
          cursor := w.wt_start;
          continue := false)
      | _ -> continue := false
    done;
    (* Path head: the current WG runs from launch to the cursor. *)
    let head =
      {
        st_wg = !wg;
        st_t0 = 0.0;
        st_t1 = !cursor;
        st_chan = !chan;
        st_consumer = !consumer;
        st_edge_latency = !latency;
        st_slack = 0.0;
        st_top_pc = dominant_pc r !wg 0.0 !cursor;
      }
    in
    (* The backward walk finds the final segment first and conses each
       earlier segment in front of it, so [!steps] is already in
       execution order; the head (launch) goes in front. *)
    head :: !steps
  end

(** Render a critical path (in execution order, as returned by
    {!critical_path}) as a table plus edge annotations. *)
let render_path (steps : path_step list) ~(wg_label : int -> string)
    ~(chan_label : int -> string) ~(pc_label : int -> int -> string) : string =
  match steps with
  | [] -> "critical path: empty (no recorded events)\n"
  | _ ->
    let b = Buffer.create 256 in
    Buffer.add_string b "critical path (launch -> finish):\n";
    List.iter
      (fun s ->
        Buffer.add_string b
          (Printf.sprintf "  %-10s %10.1f .. %-10.1f  %s%s\n" (wg_label s.st_wg)
             s.st_t0 s.st_t1
             (if s.st_top_pc >= 0 then pc_label s.st_wg s.st_top_pc
              else "(no dominant op)")
             (if s.st_slack > 0.0 then
                Printf.sprintf "  [skipped-wait slack %.1f]" s.st_slack
              else ""));
        if s.st_chan >= 0 then
          Buffer.add_string b
            (Printf.sprintf "    --[%s]--> %s  (edge latency %.1f)\n"
               (chan_label s.st_chan)
               (wg_label s.st_consumer)
               s.st_edge_latency))
      steps;
    Buffer.contents b

let path_to_json (steps : path_step list) ~(chan_label : int -> string) :
    Json.t =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("wg", Json.Int s.st_wg);
             ("t0", Json.Float s.st_t0);
             ("t1", Json.Float s.st_t1);
             ( "edge",
               if s.st_chan < 0 then Json.Null
               else
                 Json.Obj
                   [
                     ("channel", Json.Str (chan_label s.st_chan));
                     ("chan_id", Json.Int s.st_chan);
                     ("consumer_wg", Json.Int s.st_consumer);
                     ("latency", Json.Float s.st_edge_latency);
                   ] );
             ("slack", Json.Float s.st_slack);
             ("top_pc", Json.Int s.st_top_pc);
           ])
       steps)
