(** Element types supported by the tile IR, the simulator, and the
    reference kernels. Mirrors the precision menu of the paper's
    evaluation (FP16 and FP8-E4M3 inputs with FP32 accumulation). *)

type t =
  | F32
  | F16
  | F8E4M3
  | I32
  | I1

let size_bytes = function
  | F32 -> 4
  | F16 -> 2
  | F8E4M3 -> 1
  | I32 -> 4
  | I1 -> 1

let size_bits t = 8 * size_bytes t

let to_string = function
  | F32 -> "f32"
  | F16 -> "f16"
  | F8E4M3 -> "f8e4m3"
  | I32 -> "i32"
  | I1 -> "i1"

let of_string = function
  | "f32" -> Some F32
  | "f16" -> Some F16
  | "f8e4m3" | "f8" -> Some F8E4M3
  | "i32" -> Some I32
  | "i1" | "bool" -> Some I1
  | _ -> None

let is_float = function
  | F32 | F16 | F8E4M3 -> true
  | I32 | I1 -> false

let is_int = function
  | I32 | I1 -> true
  | F32 | F16 | F8E4M3 -> false

let equal (a : t) (b : t) = a = b

let pp fmt t = Format.pp_print_string fmt (to_string t)

(** Machine epsilon (distance from 1.0 to the next representable value). *)
let epsilon = function
  | F32 -> epsilon_float *. 2. ** 29. (* single precision: 2^-23 *)
  | F16 -> 2. ** -10.
  | F8E4M3 -> 2. ** -3.
  | I32 | I1 -> 1.0
