(* Host-time spans recorded around the benchmark's calls into each layer
   (traced run only). Spans live in memory and are written at exit, as
   a per-layer table and as a Chrome trace with one host lane per layer.
   Only the benchmark's own domain records: work a pool helper runs on
   its behalf shows up as the time the caller spends waiting for it. *)

type span = {
  id : int;
  name : string; (* "<layer>.<call>"; the layer is the part before '.' *)
  parent : int; (* -1 for an op root *)
  op : int;
  t0 : float;
  mutable t1 : float;
  mutable count : int; (* work done, layer-specific (instructions, ...) *)
}

let enabled = ref false
let main_domain = Domain.self ()
let spans : span list ref = ref [] (* newest first *)
let stack : span list ref = ref []
let next_id = ref 0
let current_op = ref 0

let recording () = !enabled && Domain.self () = main_domain

(** Run [f] inside a span named [name]. [rename] refines the name once
    the call returns (a cache lookup learns whether it hit). *)
let with_ ?(rename = Fun.id) name f =
  if not (recording ()) then f ()
  else begin
    let parent = match !stack with s :: _ -> s.id | [] -> -1 in
    let s =
      { id = !next_id; name; parent; op = !current_op; t0 = Calib.now ();
        t1 = 0.0; count = 0 }
    in
    incr next_id;
    stack := s :: !stack;
    let finish () =
      s.t1 <- Calib.now ();
      stack := List.tl !stack;
      spans := { s with name = rename name } :: !spans
    in
    match f () with
    | r ->
      finish ();
      r
    | exception e ->
      finish ();
      raise e
  end

(** Like {!with_}, additionally attaching a work count to the span. *)
let counted name ~count f =
  if not (recording ()) then f ()
  else begin
    let r = with_ name f in
    (match !spans with s :: _ -> s.count <- count r | [] -> ());
    r
  end

let layer name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let reset () =
  spans := [];
  stack := [];
  next_id := 0

let all () = List.rev !spans

(** Self time of every span: its duration minus the part its children
    cover (children nest, so their durations add). *)
let self_times (ss : span list) : (span * float) list =
  let child = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace child s.parent
          ((s.t1 -. s.t0) +. Option.value ~default:0.0 (Hashtbl.find_opt child s.parent)))
    ss;
  List.map
    (fun s ->
      (s, (s.t1 -. s.t0) -. Option.value ~default:0.0 (Hashtbl.find_opt child s.id)))
    ss

(** Chrome trace (Perfetto-loadable): one host lane (thread) per layer,
    microsecond timestamps from the run's start. *)
let chrome_trace ~origin (ss : span list) : Tawa_obs.Json.t =
  let module T = Tawa_obs.Trace in
  let module J = Tawa_obs.Json in
  let lanes = Hashtbl.create 16 in
  let meta = ref [] in
  let tid_of l =
    match Hashtbl.find_opt lanes l with
    | Some t -> t
    | None ->
      let t = Hashtbl.length lanes in
      Hashtbl.replace lanes l t;
      meta := T.thread_name ~tid:t l :: !meta;
      t
  in
  let names = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace names s.id s.name) ss;
  let evs =
    List.map
      (fun s ->
        T.complete ~cat:"host" ~tid:(tid_of (layer s.name))
          ~ts:((s.t0 -. origin) *. 1e6)
          ~dur:((s.t1 -. s.t0) *. 1e6)
          ~args:
            ([ ("op", J.Int s.op);
               ("parent", J.Str (Option.value ~default:"" (Hashtbl.find_opt names s.parent))) ]
            @ if s.count > 0 then [ ("count", J.Int s.count) ] else [])
          s.name)
      ss
  in
  J.Obj
    [ ("traceEvents", J.List (List.map T.event_to_json (List.rev !meta @ evs)));
      ("displayTimeUnit", J.Str "ms");
      ("otherData", J.Obj [ ("timeUnit", J.Str "us"); ("clock", J.Str "host monotonic") ]) ]
