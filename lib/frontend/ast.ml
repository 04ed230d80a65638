(** Abstract syntax of the textual tile DSL ("tritonette"), the
    counterpart of the paper's Triton-Python frontend (Fig. 2b).
    Kernels written in this surface syntax elaborate to the same IR the
    builder EDSL produces; `tawac` compiles `.tw` files through it. *)

type pos = { line : int; col : int }

type dtype_ann = string (* "f16" | "f8e4m3" | "f32" | "i32" | "i1" *)

type ty_ann =
  | Ty_scalar of dtype_ann
  | Ty_ptr of dtype_ann

type binop =
  | Badd | Bsub | Bmul | Bdiv | Brem
  | Blt | Ble | Bgt | Bge | Beq | Bne

type expr = { desc : expr_desc; pos : pos }

and expr_desc =
  | Int of int
  | Float of float
  | Var of string
  | Bin of binop * expr * expr
  | Neg of expr
  | Call of string * arg list

and arg =
  | Apos of expr          (* positional expression *)
  | Alist of expr list    (* bracketed list: shapes, offsets, strides *)
  | Adtype of dtype_ann   (* dtype literal argument *)

type stmt = { sdesc : stmt_desc; spos : pos }

and stmt_desc =
  | Assign of string * expr
  | Store of arg list (* store(desc, [offs], value) *)
  | For of {
      var : string;
      lo : expr;
      hi : expr;
      step : expr option;
      carried : string list; (* `with (a, b)` loop-carried variables *)
      body : stmt list;
    }
  | If of {
      cond : expr;
      carried : string list;
      then_ : stmt list;
      else_ : stmt list;
    }

type param = { pname : string; pty : ty_ann }

type kernel = {
  kname : string;
  kparams : param list;
  kbody : stmt list;
  kpos : pos;
}

type program = kernel list
