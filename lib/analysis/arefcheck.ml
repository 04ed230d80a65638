(** Arefcheck: the static protocol verifier for warp-specialized IR.

    {!check_kernel} runs the IR-level analyses (channel discipline,
    deadlock/capacity) on a warp-specialized kernel — non-specialized
    kernels have no protocol to check. The ISA-level mbarrier pairing
    of codegen output is {!Check_mbarrier.run}. A value that crosses
    warp-group partitions outside a channel is the IR verifier's: a
    region's definitions are out of scope in its siblings and after
    the group. SMEM over capacity is the occupancy verdict's
    ({!Statcheck}).

    Nothing runs it implicitly: callers that want the verdict ask for
    it ([tawac check], [tawac compile --check], the test suites). *)

let check_kernel (k : Tawa_ir.Kernel.t) : Diagnostic.t list =
  if not (Tawa_ir.Kernel.is_warp_specialized k) then []
  else
    let m = Model.build k in
    Check_channel.run m @ Check_deadlock.run m
