(** MLIR-flavoured textual rendering of kernels, used by [tawac
    --dump-ir], the examples, and golden tests.

    With [~ids:true] every op line additionally carries an [{id = N}]
    attribute holding the op's stable id, so diagnostics that name an
    op (the arefcheck reports of {!Tawa_analysis}) can be correlated
    with the dumped IR. Value names always embed their SSA id. *)

open Format

let pp_attr fmt (key, a) =
  match (a : Op.attr) with
  | Op.Attr_int i -> fprintf fmt "%s = %d" key i
  | Op.Attr_float f -> fprintf fmt "%s = %g" key f
  | Op.Attr_string s -> fprintf fmt "%s = %S" key s
  | Op.Attr_bool b -> fprintf fmt "%s = %b" key b
  | Op.Attr_ints l ->
    fprintf fmt "%s = [%s]" key (String.concat ", " (List.map string_of_int l))
  | Op.Attr_dtype d -> fprintf fmt "%s = %s" key (Tawa_tensor.Dtype.to_string d)

let pp_attrs fmt = function
  | [] -> ()
  | attrs ->
    fprintf fmt " {%s}"
      (String.concat ", " (List.map (fun a -> asprintf "%a" pp_attr a) attrs))

let intrinsic_attrs (opcode : Op.opcode) =
  (* Attributes implied by the opcode payload, printed for readability. *)
  match opcode with
  | Op.Program_id a | Op.Num_programs a | Op.Expand_dims a -> [ ("axis", Op.Attr_int a) ]
  | Op.Reduce (_, a) -> [ ("axis", Op.Attr_int a) ]
  | Op.Aref_create d -> [ ("depth", Op.Attr_int d) ]
  | Op.Wgmma_wait p -> [ ("pendings", Op.Attr_int p) ]
  | _ -> []

let rec pp_op_gen ~ids indent fmt (op : Op.op) =
  let pad = String.make indent ' ' in
  fprintf fmt "%s" pad;
  (match op.results with
  | [] -> ()
  | rs ->
    fprintf fmt "%s = " (String.concat ", " (List.map Value.name rs)));
  (match op.opcode with
  | Op.Const_int i -> fprintf fmt "arith.constant %d" i
  | Op.Const_float f -> fprintf fmt "arith.constant %g" f
  | _ ->
    fprintf fmt "%s" (Op.opcode_name op.opcode);
    if op.operands <> [] then
      fprintf fmt " %s" (String.concat ", " (List.map Value.name op.operands)));
  pp_attrs fmt
    (intrinsic_attrs op.opcode @ op.attrs
    @ (if ids then [ ("id", Op.Attr_int op.oid) ] else []));
  (* Result types. *)
  (match op.results with
  | [] -> ()
  | rs ->
    fprintf fmt " : %s"
      (String.concat ", " (List.map (fun r -> Types.to_string (Value.ty r)) rs)));
  (* Regions: scf.if separates branches with `else`; multi-region ops
     like tawa.warp_group label each partition. *)
  List.iteri
    (fun i r ->
      (if i = 0 then fprintf fmt " {@."
       else
         match op.opcode with
         | Op.If -> fprintf fmt "%s} else {@." pad
         | _ -> fprintf fmt "%s} partition %d {@." pad i);
      pp_region_gen ~ids (indent + 2) fmt r)
    op.regions;
  if op.regions <> [] then fprintf fmt "%s}" pad;
  fprintf fmt "@."

and pp_block_gen ~ids indent fmt (b : Op.block) =
  let pad = String.make indent ' ' in
  if b.params <> [] then
    fprintf fmt "%s^bb(%s):@." pad
      (String.concat ", "
         (List.map
            (fun p -> Printf.sprintf "%s: %s" (Value.name p) (Types.to_string (Value.ty p)))
            b.params));
  List.iter (pp_op_gen ~ids indent fmt) b.ops

and pp_region_gen ~ids indent fmt (r : Op.region) =
  List.iter (pp_block_gen ~ids indent fmt) r.blocks

let pp_kernel_gen ~ids fmt (k : Kernel.t) =
  fprintf fmt "kernel @%s(%s)%s {@." k.name
    (String.concat ", "
       (List.map
          (fun p -> Printf.sprintf "%s: %s" (Value.name p) (Types.to_string (Value.ty p)))
          k.params))
    (asprintf "%a" pp_attrs k.attrs);
  pp_region_gen ~ids 2 fmt k.body;
  fprintf fmt "}@."

let kernel_to_string ?(ids = false) k = asprintf "%a" (pp_kernel_gen ~ids) k
let op_to_string ?(ids = false) op = asprintf "%a" (pp_op_gen ~ids 0) op
