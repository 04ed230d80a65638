(** FP8 E4M3 software codec (OCP 8-bit floating point, the variant used
    by Hopper's FP8 WGMMA paths).

    Layout: 1 sign, 4 exponent (bias 7), 3 mantissa bits. The format has
    no infinities; S.1111.111 encodes NaN, and the largest finite value
    is S.1111.110 = +-448. Encoding saturates to the largest finite
    value, matching [cvt.rn.satfinite.e4m3x2.f32].

    Because the format has only 256 codes, encoding is implemented by
    nearest-value search over a precomputed decode table — trivially
    correct and fast enough for tile payloads in functional mode. *)

type bits = int

let nan_bits : bits = 0x7f
let max_finite = 448.0

let is_nan (b : bits) = b land 0x7f = 0x7f

let to_float (b : bits) : float =
  let b = b land 0xff in
  if is_nan b then Float.nan
  else
    let sign = if b land 0x80 <> 0 then -1.0 else 1.0 in
    let e = (b lsr 3) land 0xf in
    let m = b land 0x7 in
    if e = 0 then sign *. Float.of_int m *. (2. ** -9.)
    else sign *. Float.of_int (m lor 0x8) *. (2. ** Float.of_int (e - 10))

(* Decode table over non-negative codes 0x00..0x7e (0x7f is NaN). *)
let positive_values : float array =
  Array.init 0x7f (fun i -> to_float i)

let of_float (f : float) : bits =
  if Float.is_nan f then nan_bits
  else begin
    let sign = if 1.0 /. f < 0.0 || f < 0.0 then 0x80 else 0x00 in
    let a = Float.abs f in
    if a >= max_finite then sign lor 0x7e (* satfinite *)
    else begin
      (* Binary search for the first table value >= a, then pick the
         nearer of it and its predecessor; ties go to the even code. *)
      let n = Array.length positive_values in
      let lo = ref 0 and hi = ref (n - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if positive_values.(mid) < a then lo := mid + 1 else hi := mid
      done;
      let hi_code = !lo in
      if hi_code = 0 then sign
      else
        let lo_code = hi_code - 1 in
        let dl = a -. positive_values.(lo_code)
        and dh = positive_values.(hi_code) -. a in
        let code =
          if dl < dh then lo_code
          else if dh < dl then hi_code
          else if lo_code land 1 = 0 then lo_code
          else hi_code
        in
        sign lor code
    end
  end

(** Quantize a float to the nearest representable E4M3 value
    (saturating). *)
let round (f : float) : float = to_float (of_float f)

let representable (f : float) : bool =
  Float.is_nan f || Float.equal (round f) f
