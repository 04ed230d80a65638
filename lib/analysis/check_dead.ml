(** Dead-store lint, built on the use-def graph ({!Graph}).

    - {b dead-store}: a staging op ([Local_alloc], [Local_load],
      [Tma_load]) whose results no op reads. Canonicalize erases these
      in source kernels, so a surviving one means a pass (or a
      hand-built kernel) is moving data nobody consumes — pure SMEM
      bandwidth and latency waste.

    A read of a value no op defines is not a lint: the IR verifier's
    scoped def-before-use rule rejects it before any kernel reaches
    statcheck. *)

open Tawa_ir

let check (k : Kernel.t) : Diagnostic.t list =
  let graph = Graph.build k.Kernel.body in
  let out = ref [] in
  Op.iter_region
    (fun op ->
      match op.Op.opcode with
      | Op.Local_alloc | Op.Local_load | Op.Tma_load ->
        if op.Op.results <> [] && not (Graph.op_used graph op) then
          out :=
            Diagnostic.warning ~check:"dead-store" ~op ~values:op.Op.results
              "%s stages data no op reads; the transfer and its SMEM/register \
               cost are pure waste"
              (Op.opcode_name op.Op.opcode)
            :: !out
      | _ -> ())
    k.Kernel.body;
  List.rev !out
