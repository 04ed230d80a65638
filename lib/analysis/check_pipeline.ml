(** Pipeline-depth lint over the {!Model} site summary.

    - {b pipeline-depth}: the kernel's fine-MMA depth [P]
      (attr ["mma_depth"]) exceeds the actual producer->consumer reuse
      distance. The fine pipeline re-times releases to [it - P]; the
      observable lag of a channel is
      [max main-loop get offset - min main-loop consumed offset]. If
      [P] is larger than every channel's lag, the extra in-flight MMA
      groups hold registers without deferring any release — depth the
      kernel pays for and cannot use.

    Channels with no puts, or with neither puts nor gets, are
    arefcheck's to report ({!Check_channel}). *)

let lag_of (m : Model.t) (ch : Model.channel) : int option =
  let main = List.filter (Model.in_main_loop m) in
  let gets = Model.affine_offsets (main ch.Model.gets) in
  let cons = Model.affine_offsets (main ch.Model.consumeds) in
  match (gets, cons) with
  | _ :: _, _ :: _ ->
    let maxg = List.fold_left (fun acc (_, c) -> max acc c) min_int gets in
    let minc = List.fold_left (fun acc (_, c) -> min acc c) max_int cons in
    Some (maxg - minc)
  | _ -> None

let check (k : Tawa_ir.Kernel.t) : Diagnostic.t list =
  match Tawa_ir.Kernel.attr_int k "mma_depth" with
  | None -> []
  | Some p ->
    let m = Model.build k in
    let lags = List.filter_map (lag_of m) m.Model.channels in
    let lag = List.fold_left max 0 lags in
    if lags <> [] && p > lag then
      [
        Diagnostic.warning ~check:"pipeline-depth"
          "MMA pipeline depth P=%d exceeds the maximum producer->consumer \
           reuse distance %d: the extra %d in-flight group(s) hold registers \
           without deferring any release"
          p lag (p - lag);
      ]
    else []
