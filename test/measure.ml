(* The decoded engine's measured resource high-water marks: the ground
   truth the static occupancy model is checked against
   ([statcheck.differential], the autotuner's pruning soundness). *)

open Tawa_tensor
open Tawa_machine
open Tawa_gpusim
open Decode

(** Measured resident footprint of a finished context, the ground truth
    the occupancy scan of the same program
    ({!Tawa_machine.Resources.footprint}) is validated against: both
    count every register a tile lands in, so they agree exactly when
    the run writes every such register. Registers are never retired by
    either engine, so a post-run scan of the tensor plane is the
    high-water mark of register-tile bytes, and the engine's hot path
    carries no instrumentation.
    Registers [0..nparams-1] hold the launch parameters (whole global
    buffers bound as tensors), not kernel-allocated tiles, and are
    excluded. SMEM writes land only in functional mode, so the SMEM
    figure is meaningful there: every [Some] slot of the dense array
    counts its allocation's slot bytes, plus any out-of-range fallback
    tensors. *)
type hwm = {
  hwm_reg_bytes : int array;  (** per warp group (= per stream) *)
  hwm_smem_bytes : int;
}

let measure_hwm (d : t) (ctx : ectx) : hwm =
  let nparams = List.length d.d_program.Isa.param_tys in
  let tensor_bytes t = Tensor.numel t * Dtype.size_bytes (Tensor.dtype t) in
  let reg_bytes =
    Array.map
      (fun w ->
        let p = w.planes in
        let acc = ref 0 in
        for r = nparams to p.cap - 1 do
          if Bytes.get p.tags r = t_tensor then
            match p.objs.(r) with
            | Otensor t -> acc := !acc + tensor_bytes t
            | _ -> ()
        done;
        !acc)
      ctx.wgs
  in
  let smem = ref 0 in
  List.iter
    (fun (a : Isa.alloc) ->
      let base = ctx.smem_base.(a.Isa.alloc_id) in
      for s = 0 to a.Isa.slots - 1 do
        if ctx.smem.(base + s) <> None then smem := !smem + a.Isa.bytes_per_slot
      done)
    d.d_program.Isa.allocs;
  Hashtbl.iter (fun _ t -> smem := !smem + tensor_bytes t) ctx.smem_over;
  { hwm_reg_bytes = reg_bytes; hwm_smem_bytes = !smem }

(** Run one CTA and scan its resource high-water marks afterwards
    ({!measure_hwm}): resident register-tile bytes per warp group and
    written SMEM bytes. SMEM is only meaningful under a functional-mode
    [cfg]. *)
let run_measured ~(cfg : Config.t) ~(program : Isa.program)
    ~(params : Sim.rt list) ~(num_programs : int array)
    ?(pid = [| 0; 0; 0 |]) ~(pop_global : unit -> int) () : Sim.outcome * hwm =
  let d = Engine.prepare ~cfg program in
  let ctx = make_ctx d ~params ~num_programs ~pid ~pop_global in
  let outcome = Engine.run_decoded ctx in
  (outcome, measure_hwm d ctx)
