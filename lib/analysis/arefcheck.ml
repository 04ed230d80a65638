(** Arefcheck: the static protocol verifier for warp-specialized IR.

    Entry points aggregate the individual checks:
    - {!check_kernel} runs the IR-level analyses (channel discipline,
      cross-partition races, deadlock/capacity) on a warp-specialized
      kernel — non-specialized kernels have no protocol to check;
    - {!check_program} runs the ISA-level analyses (mbarrier pairing,
      SMEM capacity) on codegen output.

    Nothing runs it implicitly: callers that want the verdict ask for
    it ([tawac check], [tawac compile --check], the test suites). *)

let check_kernel (k : Tawa_ir.Kernel.t) : Diagnostic.t list =
  if not (Tawa_ir.Kernel.is_warp_specialized k) then []
  else
    let m = Model.build k in
    Check_channel.run m @ Check_race.run k @ Check_deadlock.run m

let check_program (p : Tawa_machine.Isa.program) : Diagnostic.t list =
  Check_mbarrier.run p @ Check_smem.run p
