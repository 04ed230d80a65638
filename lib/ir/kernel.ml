(** A kernel: the IR unit corresponding to one [@triton.jit] function.
    Parameters are scalars, global pointers, or TMA descriptors; the
    body is a single-block region. *)

type t = {
  name : string;
  params : Value.t list;
  body : Op.region;
  mutable attrs : (string * Op.attr) list;
}

let create ~name ~params ~body = { name; params; body; attrs = [] }

let entry k = Op.entry_block k.body

let attr_int k key =
  match List.assoc_opt key k.attrs with Some (Op.Attr_int i) -> Some i | _ -> None

let set_attr k key v = k.attrs <- (key, v) :: List.remove_assoc key k.attrs

(** [k] with attribute [key] set to [v], as a fresh record that shares
    [k]'s body; [k] itself is unchanged. *)
let with_attr k key v = { k with attrs = (key, v) :: List.remove_assoc key k.attrs }

let count_ops k = Op.count_ops k.body

(** Find the single [Warp_group] op of a warp-specialized kernel, if
    any. *)
let find_warp_group k =
  Op.fold_region
    (fun acc op -> match op.Op.opcode with Op.Warp_group -> Some op | _ -> acc)
    None k.body

let is_warp_specialized k = Option.is_some (find_warp_group k)

(** Deep-copy a kernel (fresh value identities; same parameter values
    are re-created and substituted). *)
let clone (k : t) =
  let outer = Value.Tbl.create 16 in
  let params =
    List.map
      (fun p ->
        let p' = Value.fresh ~hint:(Value.hint p) (Value.ty p) in
        Value.Tbl.replace outer p p';
        p')
      k.params
  in
  let body, _ = Op.clone_region ~outer k.body in
  { name = k.name; params; body; attrs = k.attrs }
