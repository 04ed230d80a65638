(* The kernel fingerprint the compile cache used before the structural
   one ({!Tawa_machine.Progcache.kernel_fingerprint}): a digest of the
   kernel's printed form with SSA value names renumbered by first
   occurrence. Kept as the reference the structural fingerprint is
   tested against: kernels whose canonical printed forms differ must
   never share a structural fingerprint. The printed form is coarser —
   it renders floats with [%g], so near-equal constants print alike. *)

open Tawa_ir

let is_ident_char = function
  | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
  | _ -> false

(** Canonicalize a printed kernel: every SSA value token ([%name_id])
    is renumbered by first occurrence, erasing the global value-id
    counter so structurally identical kernels print identically. *)
let canonicalize_printed s =
  let n = String.length s in
  let buf = Buffer.create n in
  let ids : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '%' then begin
      let j = ref (!i + 1) in
      while !j < n && is_ident_char s.[!j] do
        incr j
      done;
      let tok = String.sub s !i (!j - !i) in
      let id =
        match Hashtbl.find_opt ids tok with
        | Some id -> id
        | None ->
          let id = Hashtbl.length ids in
          Hashtbl.add ids tok id;
          id
      in
      Buffer.add_string buf "%v";
      Buffer.add_string buf (string_of_int id);
      i := !j
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let canonical (k : Kernel.t) = canonicalize_printed (Printer.kernel_to_string k)
