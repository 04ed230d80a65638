(** IEEE 754 binary16 (half precision) software codec.

    The simulator carries tile payloads as OCaml [float]s but quantizes
    them through this codec whenever a value is materialized with dtype
    f16, so that compiled kernels are verified against references at the
    precision the hardware would use. Conversion from binary32 uses
    round-to-nearest-even, matching [cvt.rn.f16.f32]. *)

(* A half-precision value is represented by its 16-bit pattern. *)
type bits = int

let sign_mask = 0x8000
let exp_mask = 0x7c00
let man_mask = 0x03ff

let nan_bits : bits = 0x7e00

let is_nan (h : bits) = h land 0x7fff > exp_mask
let is_inf (h : bits) = h land 0x7fff = exp_mask

(* Convert a single-precision bit pattern (as int, 32 significant bits)
   to a half-precision bit pattern with round-to-nearest-even. *)
let of_float32_bits (x : int) : bits =
  let sign = (x lsr 16) land sign_mask in
  let e = (x lsr 23) land 0xff in
  let m = x land 0x7fffff in
  if e = 255 then
    (* Inf or NaN. Preserve NaN-ness via a quiet mantissa bit. *)
    sign lor exp_mask lor (if m <> 0 then 0x200 else 0)
  else
    let e' = e - 127 + 15 in
    if e' >= 31 then sign lor exp_mask (* overflow -> infinity *)
    else if e' <= 0 then
      if e' < -10 then sign (* underflows to signed zero *)
      else begin
        (* Subnormal half: shift the (implicit-1) mantissa right and
           round to nearest even on the discarded bits. *)
        let m = m lor 0x800000 in
        let shift = 14 - e' in
        let q = m lsr shift in
        let rem = m land ((1 lsl shift) - 1) in
        let half = 1 lsl (shift - 1) in
        let q =
          if rem > half || (rem = half && q land 1 = 1) then q + 1 else q
        in
        sign lor q
      end
    else begin
      let q = m lsr 13 in
      let rem = m land 0x1fff in
      let base = sign lor (e' lsl 10) lor q in
      (* A mantissa carry propagating into the exponent, possibly up to
         infinity, is exactly what IEEE rounding requires. *)
      if rem > 0x1000 || (rem = 0x1000 && q land 1 = 1) then base + 1
      else base
    end

let of_float (f : float) : bits =
  (* Double -> single is itself RNE; the residual double-rounding error
     cannot occur for binary16 because binary32 keeps 13 extra bits. *)
  of_float32_bits (Int32.to_int (Int32.bits_of_float f) land 0xffffffff)

let to_float (h : bits) : float =
  let sign = if h land sign_mask <> 0 then -1.0 else 1.0 in
  let e = (h lsr 10) land 0x1f in
  let m = h land man_mask in
  if e = 31 then if m <> 0 then Float.nan else sign *. Float.infinity
  else if e = 0 then sign *. Float.of_int m *. (2. ** -24.)
  else sign *. Float.of_int (m lor 0x400) *. (2. ** Float.of_int (e - 25))

(** Quantize a float to the nearest representable binary16 value. *)
let round (f : float) : float = to_float (of_float f)

(** True iff [f] is exactly representable in binary16. *)
let representable (f : float) : bool =
  Float.is_nan f || Float.equal (round f) f

let max_finite = 65504.0
let min_positive_normal = 2. ** -14.
let min_positive_subnormal = 2. ** -24.
