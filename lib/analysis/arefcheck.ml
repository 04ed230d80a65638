(** Arefcheck: the static protocol verifier for warp-specialized IR.

    Entry points aggregate the individual checks:
    - {!check_kernel} runs the IR-level analyses (channel discipline,
      cross-partition races, deadlock/capacity) on a warp-specialized
      kernel — non-specialized kernels have no protocol to check;
    - {!check_program} runs the ISA-level analyses (mbarrier pairing,
      SMEM capacity) on codegen output.

    Checking is controlled by a process-wide switch ({!set_enabled} /
    {!checking_enabled}), off by default and set from [TAWA_CHECK=1] by
    {!Tawa_gpusim.Config.of_env}: it enables checking throughout the
    compile flow without touching call sites. [assert_clean] converts
    error diagnostics into a {!Check_failed} exception for CLI/pass
    use. *)

exception Check_failed of string * Diagnostic.t list

let () =
  Printexc.register_printer (function
    | Check_failed (what, ds) ->
      Some (Printf.sprintf "arefcheck failed for %s:\n%s" what (Diagnostic.report ds))
    | _ -> None)

let check_kernel (k : Tawa_ir.Kernel.t) : Diagnostic.t list =
  if not (Tawa_ir.Kernel.is_warp_specialized k) then []
  else
    let m = Model.build k in
    Check_channel.run m @ Check_race.run k @ Check_deadlock.run m

let check_program (p : Tawa_machine.Isa.program) : Diagnostic.t list =
  Check_mbarrier.run p @ Check_smem.run p

(** [TAWA_CHECK] parsing: unset / empty / "0" / "false" / "off" disable,
    anything else enables. *)
let enabled_of = function
  | None -> false
  | Some v -> (
    match String.lowercase_ascii (String.trim v) with
    | "" | "0" | "false" | "off" | "no" -> false
    | _ -> true)

(* Process-wide checking switch; {!Tawa_gpusim.Config.of_env} applies
   [TAWA_CHECK] at startup. *)
let enabled : bool Atomic.t = Atomic.make false

let set_enabled v = Atomic.set enabled v
let checking_enabled () = Atomic.get enabled

(** Raise {!Check_failed} if [diags] contains errors; return the
    warnings (callers may print them). *)
let assert_clean ~what diags =
  match Diagnostic.errors diags with
  | [] -> List.filter (fun d -> not (Diagnostic.is_error d)) diags
  | errs -> raise (Check_failed (what, errs))
