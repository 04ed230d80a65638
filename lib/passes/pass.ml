(** What a pass raises when a kernel does not have the shape it
    transforms. {!Manager.compile} records such a pass as skipped, and
    the software-pipelined build lowers the kernel unpipelined. *)

exception Not_applicable of string

let na fmt = Format.kasprintf (fun s -> raise (Not_applicable s)) fmt
