(** Process-wide metric registry: monotonic counters, wall-clock timers,
    and pull-style gauges, rendered to a text table or [Json].

    It depends on nothing but [unix] (every library in the tree links
    it, so it must sit below them all). Timers read the wall clock,
    [Unix.gettimeofday], so they stay right when several domains run;
    [set_clock] swaps in another clock.

    All operations are mutex-guarded; hot simulator loops do not touch
    the registry (they accumulate into local arrays and fold in once per
    CTA), so contention is not a concern. *)

type value =
  | Int of int
  | Float of float
  | Str of string

type timer = { mutable total : float; mutable calls : int }

type metric =
  | Counter of int ref
  | Cell of float ref
  | Timer of timer
  | Gauge of (unit -> value)

let lock = Mutex.create ()
let metrics : (string, metric) Hashtbl.t = Hashtbl.create 64

let clock = ref Unix.gettimeofday
let set_clock f = clock := f
let now () = !clock ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let get_or_add name mk =
  locked (fun () ->
      match Hashtbl.find_opt metrics name with
      | Some m -> m
      | None ->
        let m = mk () in
        Hashtbl.replace metrics name m;
        m)

(** Add [by] (default 1) to the counter [name], creating it at zero. *)
let incr ?(by = 1) name =
  match get_or_add name (fun () -> Counter (ref 0)) with
  | Counter r -> locked (fun () -> r := !r + by)
  | _ -> ()

(** Set the float cell [name] (last-write-wins, e.g. a high-water mark
    pushed from outside). *)
let set_float name v =
  match get_or_add name (fun () -> Cell (ref 0.0)) with
  | Cell r -> locked (fun () -> r := v)
  | _ -> ()

(** Raise the float cell [name] to at least [v]. *)
let max_float name v =
  match get_or_add name (fun () -> Cell (ref 0.0)) with
  | Cell r -> locked (fun () -> if v > !r then r := v)
  | _ -> ()

(** Record one observation of [dt] seconds under timer [name]. *)
let observe name dt =
  match get_or_add name (fun () -> Timer { total = 0.0; calls = 0 }) with
  | Timer t ->
    locked (fun () ->
        t.total <- t.total +. dt;
        t.calls <- t.calls + 1)
  | _ -> ()

(** Time [f ()] and record it under [name]; re-raises, still recording. *)
let time name f =
  let t0 = now () in
  Fun.protect ~finally:(fun () -> observe name (now () -. t0)) f

(** Register (or replace) a pull-style gauge: [f] is evaluated at
    snapshot time. Safe to call from module initializers. *)
let register_gauge name f =
  locked (fun () -> Hashtbl.replace metrics name (Gauge f))

let unregister name = locked (fun () -> Hashtbl.remove metrics name)

(** Reset counters, cells and timers to zero; gauges are left installed
    (their backing state belongs to the instrumented module). *)
let reset () =
  locked (fun () ->
      Hashtbl.iter
        (fun _ m ->
          match m with
          | Counter r -> r := 0
          | Cell r -> r := 0.0
          | Timer t ->
            t.total <- 0.0;
            t.calls <- 0
          | Gauge _ -> ())
        metrics)

(** Flattened, name-sorted view. Timers expand into
    ["<name>.seconds"] and ["<name>.calls"]. *)
let snapshot () : (string * value) list =
  let entries =
    locked (fun () ->
        Hashtbl.fold (fun name m acc -> (name, m) :: acc) metrics [])
  in
  (* Evaluate gauges outside the lock: a gauge may itself consult a
     mutex-guarded structure (e.g. Progcache stats). *)
  let rows =
    List.concat_map
      (fun (name, m) ->
        match m with
        | Counter r -> [ (name, Int !r) ]
        | Cell r -> [ (name, Float !r) ]
        | Timer t ->
          [ (name ^ ".seconds", Float t.total); (name ^ ".calls", Int t.calls) ]
        | Gauge f -> ( try [ (name, f ()) ] with _ -> [ (name, Str "<error>") ]))
      entries
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) rows

let value_to_json = function
  | Int i -> Json.Int i
  | Float f -> Json.Float f
  | Str s -> Json.Str s

let value_to_string = function
  | Int i -> string_of_int i
  | Float f -> Printf.sprintf "%.6g" f
  | Str s -> s

let to_json () : Json.t =
  Json.Obj (List.map (fun (k, v) -> (k, value_to_json v)) (snapshot ()))

let to_table () : string =
  Tbl.render ~header:[ "metric"; "value" ]
    (List.map (fun (k, v) -> [ k; value_to_string v ]) (snapshot ()))
