(** Plain-text table rendering and JSON for the benchmark harness and
    the examples. The implementations live in [Tawa_obs] (so the
    telemetry registry can render without depending on tawa_core); this
    module keeps the historical entry points. *)

let render = Tawa_obs.Tbl.render

let f1 x = Printf.sprintf "%.1f" x

let speedup ~over x = Printf.sprintf "%.2fx" (x /. over)

(** Geometric mean of ratios, the paper's "average speedup". *)
let geomean xs =
  match xs with
  | [] -> 1.0
  | _ ->
    let n = Float.of_int (List.length xs) in
    exp (List.fold_left (fun acc x -> acc +. log x) 0.0 xs /. n)

(** Minimal JSON emitter for the machine-readable bench trajectory
    ([BENCH_*.json]). See [Tawa_obs.Json]. *)
module Json = Tawa_obs.Json
