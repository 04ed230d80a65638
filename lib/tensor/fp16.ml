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
      (* Round up iff rem > 0x1000, or rem = 0x1000 and q is odd: the
         sum below reaches 0x2000 exactly then. Branch-free, because on
         real data the decision is a coin flip. A mantissa carry
         propagating into the exponent, possibly up to infinity, is
         exactly what IEEE rounding requires. *)
      base + ((rem + 0xfff + (q land 1)) lsr 13)
    end

let[@inline] of_float (f : float) : bits =
  (* Double -> single is itself RNE; the residual double-rounding error
     cannot occur for binary16 because binary32 keeps 13 extra bits. *)
  of_float32_bits (Int32.to_int (Int32.bits_of_float f) land 0xffffffff)

(* [scale.(e)] is the weight of the mantissa's last bit at exponent
   field [e]: 2^(e-25), and 2^-24 for subnormals (e = 0). Powers of two
   are exact, so reading them from a table instead of calling [**]
   leaves every product unchanged. *)
let scale = Array.init 32 (fun e -> 2. ** Float.of_int (max e 1 - 25))

let[@inline] to_float (h : bits) : float =
  (* -1.0 or 1.0 without a branch on the sign bit. *)
  let sign = Float.of_int (1 - ((h lsr 14) land 2)) in
  let e = (h lsr 10) land 0x1f in
  let m = h land man_mask in
  if e = 31 then if m <> 0 then Float.nan else sign *. Float.infinity
  else if e = 0 then sign *. Float.of_int m *. Array.unsafe_get scale 0
  else sign *. Float.of_int (m lor 0x400) *. Array.unsafe_get scale e

(** Quantize a float to the nearest representable binary16 value. *)
let[@inline] round (f : float) : float = to_float (of_float f)

(** [round_span src ~soff dst ~doff ~len] stores [round src.(soff+i)]
    into [dst.(doff+i)]; the caller checks the span. [round] inlines
    here, so the loop boxes no float, which a call into this module
    from another one would. *)
let round_span (src : float array) ~soff (dst : float array) ~doff ~len =
  for i = 0 to len - 1 do
    Array.unsafe_set dst (doff + i) (round (Array.unsafe_get src (soff + i)))
  done

(** True iff [f] is exactly representable in binary16. *)
let representable (f : float) : bool =
  Float.is_nan f || Float.equal (round f) f

