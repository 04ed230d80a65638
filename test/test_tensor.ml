(* Tests for the numerics substrate: dtype metadata, FP16/FP8 codecs,
   dense tensors, and reference kernels. *)

open Tawa_tensor

let check_float = Alcotest.(check (float 1e-12))

(* ------------------------------------------------------------------ *)
(* Dtype                                                              *)
(* ------------------------------------------------------------------ *)

let test_dtype_sizes () =
  Alcotest.(check int) "f32 bytes" 4 (Dtype.size_bytes F32);
  Alcotest.(check int) "f16 bytes" 2 (Dtype.size_bytes F16);
  Alcotest.(check int) "f8 bytes" 1 (Dtype.size_bytes F8E4M3);
  Alcotest.(check int) "f16 bits" 16 (Dtype.size_bits F16)

let test_dtype_strings () =
  List.iter
    (fun d ->
      match Dtype.of_string (Dtype.to_string d) with
      | Some d' -> Alcotest.(check bool) "roundtrip" true (Dtype.equal d d')
      | None -> Alcotest.fail "of_string failed")
    [ Dtype.F32; F16; F8E4M3; I32; I1 ];
  Alcotest.(check bool) "unknown" true (Dtype.of_string "f64" = None)

let test_dtype_classes () =
  Alcotest.(check bool) "f16 float" true (Dtype.is_float F16);
  Alcotest.(check bool) "i32 int" true (Dtype.is_int I32);
  Alcotest.(check bool) "i32 not float" false (Dtype.is_float I32)

(* ------------------------------------------------------------------ *)
(* FP16                                                               *)
(* ------------------------------------------------------------------ *)

let test_fp16_known_values () =
  let cases =
    [ (0.0, 0x0000); (1.0, 0x3c00); (-1.0, 0xbc00); (2.0, 0x4000);
      (0.5, 0x3800); (65504.0, 0x7bff); (Float.infinity, 0x7c00);
      (Float.neg_infinity, 0xfc00); (2. ** -24., 0x0001);
      (2. ** -14., 0x0400); (1.5, 0x3e00) ]
  in
  List.iter
    (fun (f, bits) ->
      Alcotest.(check int) (Printf.sprintf "encode %g" f) bits (Fp16.of_float f))
    cases;
  List.iter
    (fun (f, bits) -> check_float (Printf.sprintf "decode %#x" bits) f (Fp16.to_float bits))
    cases

let test_fp16_overflow () =
  Alcotest.(check int) "overflow -> inf" 0x7c00 (Fp16.of_float 1e6);
  Alcotest.(check int) "neg overflow" 0xfc00 (Fp16.of_float (-1e6));
  (* 65520 is the rounding boundary: values >= 65520 round to inf. *)
  Alcotest.(check int) "65519 -> max" 0x7bff (Fp16.of_float 65519.0);
  Alcotest.(check int) "65520 -> inf" 0x7c00 (Fp16.of_float 65520.0)

let test_fp16_underflow () =
  Alcotest.(check int) "tiny -> 0" 0x0000 (Fp16.of_float 1e-9);
  Alcotest.(check int) "neg tiny -> -0" 0x8000 (Fp16.of_float (-1e-9));
  (* Half of the smallest subnormal rounds to zero (ties to even). *)
  Alcotest.(check int) "half-ulp tie" 0x0000 (Fp16.of_float (2. ** -25.));
  Alcotest.(check int) "just above tie" 0x0001 (Fp16.of_float (2. ** -25. *. 1.1))

let test_fp16_nan () =
  Alcotest.(check bool) "nan encodes to nan" true (Fp16.is_nan (Fp16.of_float Float.nan));
  Alcotest.(check bool) "decode nan" true (Float.is_nan (Fp16.to_float 0x7e00));
  Alcotest.(check bool) "inf detect" true (Fp16.is_inf 0x7c00)

let test_fp16_round_to_even () =
  (* 1 + 2^-11 is exactly between 1.0 and 1+2^-10: ties to even -> 1.0. *)
  check_float "tie down" 1.0 (Fp16.round (1.0 +. (2. ** -11.)));
  (* (1+2^-10) + 2^-11 ties up to 1+2^-9. *)
  check_float "tie up" (1.0 +. (2. ** -9.))
    (Fp16.round (1.0 +. (2. ** -10.) +. (2. ** -11.)))

(* The decode formula [Fp16.to_float] used before its power-of-two
   table: [**] on every element. *)
let fp16_to_float_pow (h : int) =
  let sign = if h land 0x8000 <> 0 then -1.0 else 1.0 in
  let e = (h lsr 10) land 0x1f in
  let m = h land 0x3ff in
  if e = 31 then if m <> 0 then Float.nan else sign *. Float.infinity
  else if e = 0 then sign *. Float.of_int m *. (2. ** -24.)
  else sign *. Float.of_int (m lor 0x400) *. (2. ** Float.of_int (e - 25))

let test_fp16_exhaustive_roundtrip () =
  (* Every finite half value must decode/encode to itself. *)
  for bits = 0 to 0xffff do
    if not (Fp16.is_nan bits) then begin
      let f = Fp16.to_float bits in
      let bits' = Fp16.of_float f in
      if bits' <> bits then
        Alcotest.failf "fp16 roundtrip: %#x -> %g -> %#x" bits f bits'
    end
  done;
  (* The table decode equals the [**] formula on all 65,536 patterns,
     bit for bit; NaNs compare as a class. *)
  for bits = 0 to 0xffff do
    let got = Fp16.to_float bits and want = fp16_to_float_pow bits in
    if
      not
        ((Float.is_nan got && Float.is_nan want)
        || Int64.equal (Int64.bits_of_float got) (Int64.bits_of_float want))
    then Alcotest.failf "fp16 decode: %#x -> %h, formula %h" bits got want
  done

(* The binary32 -> binary16 encoder as written before its round-up
   decision went branch-free. *)
let fp16_of_float32_bits_branchy (x : int) =
  let sign = (x lsr 16) land 0x8000 in
  let e = (x lsr 23) land 0xff in
  let m = x land 0x7fffff in
  if e = 255 then sign lor 0x7c00 lor (if m <> 0 then 0x200 else 0)
  else
    let e' = e - 127 + 15 in
    if e' >= 31 then sign lor 0x7c00
    else if e' <= 0 then
      if e' < -10 then sign
      else begin
        let m = m lor 0x800000 in
        let shift = 14 - e' in
        let q = m lsr shift in
        let rem = m land ((1 lsl shift) - 1) in
        let half = 1 lsl (shift - 1) in
        sign lor (if rem > half || (rem = half && q land 1 = 1) then q + 1 else q)
      end
    else begin
      let q = m lsr 13 in
      let rem = m land 0x1fff in
      let base = sign lor (e' lsl 10) lor q in
      if rem > 0x1000 || (rem = 0x1000 && q land 1 = 1) then base + 1 else base
    end

let test_fp16_branch_free_rounding () =
  (* Every discarded 13-bit remainder, with both parities of the kept
     mantissa, both signs, and exponents from the smallest normal half
     to the one that carries into infinity. *)
  List.iter
    (fun e ->
      List.iter
        (fun q ->
          for rem = 0 to 0x1fff do
            List.iter
              (fun sign ->
                let x = (sign lsl 31) lor (e lsl 23) lor (q lsl 13) lor rem in
                let got = Fp16.of_float32_bits x and want = fp16_of_float32_bits_branchy x in
                if got <> want then
                  Alcotest.failf "fp16 encode: %#x -> %#x, reference %#x" x got want)
              [ 0; 1 ]
          done)
        [ 0; 1; 0x2aa; 0x3fe; 0x3ff ])
    [ 113; 120; 127; 135; 142; 143 ]

let prop_fp16_idempotent =
  QCheck.Test.make ~name:"fp16 round idempotent" ~count:2000
    QCheck.(float_range (-70000.0) 70000.0)
    (fun f -> Float.equal (Fp16.round (Fp16.round f)) (Fp16.round f))

let prop_fp16_monotone =
  QCheck.Test.make ~name:"fp16 round monotone" ~count:2000
    QCheck.(pair (float_range (-1000.0) 1000.0) (float_range (-1000.0) 1000.0))
    (fun (a, b) ->
      let a, b = if a <= b then (a, b) else (b, a) in
      Fp16.round a <= Fp16.round b)

let prop_fp16_error_bound =
  QCheck.Test.make ~name:"fp16 relative error <= 2^-11" ~count:2000
    QCheck.(float_range 1e-3 60000.0)
    (fun f -> Float.abs (Fp16.round f -. f) <= Float.abs f *. (2. ** -11.) +. 1e-30)

(* ------------------------------------------------------------------ *)
(* FP8 E4M3                                                           *)
(* ------------------------------------------------------------------ *)

let test_fp8_known_values () =
  let cases =
    [ (0.0, 0x00); (1.0, 0x38); (-1.0, 0xb8); (2.0, 0x40); (448.0, 0x7e);
      (0.5, 0x30); (2. ** -9., 0x01); (2. ** -6., 0x08); (1.5, 0x3c) ]
  in
  List.iter
    (fun (f, bits) ->
      Alcotest.(check int) (Printf.sprintf "encode %g" f) bits (Fp8.of_float f))
    cases

let test_fp8_saturation () =
  Alcotest.(check int) "satfinite" 0x7e (Fp8.of_float 1e9);
  Alcotest.(check int) "satfinite inf" 0x7e (Fp8.of_float Float.infinity);
  Alcotest.(check int) "neg satfinite" 0xfe (Fp8.of_float Float.neg_infinity);
  check_float "448 stays" 448.0 (Fp8.round 448.0)

let test_fp8_nan () =
  Alcotest.(check int) "nan bits" 0x7f (Fp8.of_float Float.nan);
  Alcotest.(check bool) "decode nan" true (Float.is_nan (Fp8.to_float 0x7f));
  Alcotest.(check bool) "decode nan neg" true (Float.is_nan (Fp8.to_float 0xff))

let test_fp8_exhaustive_roundtrip () =
  for bits = 0 to 0xff do
    if not (Fp8.is_nan bits) then begin
      let f = Fp8.to_float bits in
      let bits' = Fp8.of_float f in
      (* +0 and -0 may alias; compare decoded values. *)
      if not (Float.equal (Fp8.to_float bits') f) then
        Alcotest.failf "fp8 roundtrip: %#x -> %g -> %#x" bits f bits'
    end
  done

let prop_fp8_idempotent =
  QCheck.Test.make ~name:"fp8 round idempotent" ~count:2000
    QCheck.(float_range (-500.0) 500.0)
    (fun f -> Float.equal (Fp8.round (Fp8.round f)) (Fp8.round f))

let prop_fp8_nearest =
  (* The chosen code is at least as close as every other code. *)
  QCheck.Test.make ~name:"fp8 encodes to nearest" ~count:500
    QCheck.(float_range (-450.0) 450.0)
    (fun f ->
      let e = Fp8.round f in
      let d = Float.abs (e -. f) in
      let ok = ref true in
      for b = 0 to 0xff do
        if not (Fp8.is_nan b) then begin
          let v = Fp8.to_float b in
          if Float.abs (v -. f) < d -. 1e-12 then ok := false
        end
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Tensor                                                             *)
(* ------------------------------------------------------------------ *)

let test_tensor_create_get_set () =
  let t = Tensor.create [| 2; 3 |] in
  Alcotest.(check int) "numel" 6 (Tensor.numel t);
  Tensor.set t [| 1; 2 |] 42.0;
  check_float "get back" 42.0 (Tensor.get t [| 1; 2 |]);
  check_float "other zero" 0.0 (Tensor.get t [| 0; 0 |])

let test_tensor_oob () =
  let t = Tensor.create [| 2; 3 |] in
  Alcotest.check_raises "oob"
    (Invalid_argument
       "Tensor.linear_index: index 3 out of bounds for dim 1 (size 3)")
    (fun () -> ignore (Tensor.get t [| 0; 3 |]))

let test_tensor_quantization () =
  let t = Tensor.create ~dtype:Dtype.F16 [| 1 |] in
  Tensor.set t [| 0 |] (1.0 +. (2. ** -12.));
  check_float "quantized to f16" 1.0 (Tensor.get t [| 0 |]);
  let t8 = Tensor.create ~dtype:Dtype.F8E4M3 [| 1 |] in
  Tensor.set t8 [| 0 |] 3.1;
  check_float "quantized to f8" 3.0 (Tensor.get t8 [| 0 |])

let test_tensor_init_iteri () =
  let t = Tensor.init [| 3; 4 |] (fun idx -> Float.of_int ((idx.(0) * 10) + idx.(1))) in
  check_float "init value" 23.0 (Tensor.get t [| 2; 3 |]);
  let count = ref 0 in
  Tensor.iteri
    (fun idx v ->
      incr count;
      check_float "iteri consistent" (Float.of_int ((idx.(0) * 10) + idx.(1))) v)
    t;
  Alcotest.(check int) "iteri count" 12 !count

let test_tensor_slice_blit () =
  let src = Tensor.init [| 4; 4 |] (fun i -> Float.of_int ((i.(0) * 4) + i.(1))) in
  let tile = Tensor.slice2 src ~r0:1 ~c0:2 ~rows:2 ~cols:2 in
  check_float "slice [0,0]" 6.0 (Tensor.get2 tile 0 0);
  check_float "slice [1,1]" 11.0 (Tensor.get2 tile 1 1);
  (* Out-of-bounds slice reads zero. *)
  let edge = Tensor.slice2 src ~r0:3 ~c0:3 ~rows:2 ~cols:2 in
  check_float "in-bounds corner" 15.0 (Tensor.get2 edge 0 0);
  check_float "oob fill" 0.0 (Tensor.get2 edge 1 1);
  let dst = Tensor.create [| 4; 4 |] in
  Tensor.blit2 ~dst ~r0:2 ~c0:2 tile;
  check_float "blit" 6.0 (Tensor.get2 dst 2 2);
  (* Clipping blit must not raise. *)
  Tensor.blit2 ~dst ~r0:3 ~c0:3 tile;
  check_float "clipped blit" 6.0 (Tensor.get2 dst 3 3)

let test_tensor_transpose () =
  let t = Tensor.init [| 2; 3 |] (fun i -> Float.of_int ((i.(0) * 3) + i.(1))) in
  let tt = Tensor.transpose2 t in
  Alcotest.(check (array int)) "shape" [| 3; 2 |] (Tensor.shape tt);
  check_float "transposed" (Tensor.get2 t 0 2) (Tensor.get2 tt 2 0)

let test_tensor_cast () =
  let t = Tensor.init [| 2 |] (fun i -> if i.(0) = 0 then 1.0001 else 300.0) in
  let h = Tensor.cast Dtype.F8E4M3 t in
  check_float "cast quantizes" 1.0 (Tensor.get h [| 0 |]);
  (* E4M3 neighbours of 300 are 288 and 320; 288 is nearer. *)
  check_float "cast 300->288" 288.0 (Tensor.get h [| 1 |])

let test_tensor_random_deterministic () =
  let a = Tensor.random ~seed:7 [| 8; 8 |] in
  let b = Tensor.random ~seed:7 [| 8; 8 |] in
  Alcotest.(check bool) "same seed same data" true (Tensor.equal a b);
  let c = Tensor.random ~seed:8 [| 8; 8 |] in
  Alcotest.(check bool) "different seed" false (Tensor.equal a c)

let prop_tensor_map2_add_comm =
  QCheck.Test.make ~name:"map2 (+) commutative" ~count:200
    QCheck.(pair small_int small_int)
    (fun (sa, sb) ->
      let a = Tensor.random ~seed:(sa + 1) [| 4; 4 |] in
      let b = Tensor.random ~seed:(sb + 1000) [| 4; 4 |] in
      Tensor.equal (Tensor.map2 ( +. ) a b) (Tensor.map2 ( +. ) b a))

let prop_transpose_involution =
  QCheck.Test.make ~name:"transpose involution" ~count:100
    QCheck.(pair (int_range 1 8) (int_range 1 8))
    (fun (r, c) ->
      let t = Tensor.random ~seed:(r + (c * 100)) [| r; c |] in
      Tensor.equal t (Tensor.transpose2 (Tensor.transpose2 t)))

(* ------------------------------------------------------------------ *)
(* Reference kernels                                                  *)
(* ------------------------------------------------------------------ *)

let test_gemm_identity () =
  let n = 8 in
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| n; n |] in
  let id = Tensor.init ~dtype:Dtype.F16 [| n; n |] (fun i -> if i.(0) = i.(1) then 1.0 else 0.0) in
  let c = Reference.gemm a id in
  Alcotest.(check bool) "A * I = A" true (Tensor.approx_equal ~tol:1e-6 a c)

let test_gemm_known () =
  let a = Tensor.init [| 2; 2 |] (fun i -> Float.of_int ((i.(0) * 2) + i.(1) + 1)) in
  (* [[1;2];[3;4]] * [[1;2];[3;4]] = [[7;10];[15;22]] *)
  let c = Reference.gemm ~out_dtype:Dtype.F32 a a in
  check_float "c00" 7.0 (Tensor.get2 c 0 0);
  check_float "c01" 10.0 (Tensor.get2 c 0 1);
  check_float "c10" 15.0 (Tensor.get2 c 1 0);
  check_float "c11" 22.0 (Tensor.get2 c 1 1)

let test_gemm_rect () =
  let a = Tensor.random ~seed:2 [| 3; 5 |] and b = Tensor.random ~seed:3 [| 5; 7 |] in
  let c = Reference.gemm ~out_dtype:Dtype.F32 a b in
  Alcotest.(check (array int)) "shape" [| 3; 7 |] (Tensor.shape c);
  (* Spot-check one entry. *)
  let expect = ref 0.0 in
  for p = 0 to 4 do
    expect := !expect +. (Tensor.get2 a 2 p *. Tensor.get2 b p 6)
  done;
  Alcotest.(check (float 1e-6)) "entry" !expect (Tensor.get2 c 2 6)

let prop_gemm_linear =
  (* (alpha A) B = alpha (A B) in f32. *)
  QCheck.Test.make ~name:"gemm scalar linearity" ~count:50
    QCheck.(pair (int_range 1 6) (float_range (-2.0) 2.0))
    (fun (n, alpha) ->
      let a = Tensor.random ~seed:n [| n; n |] in
      let b = Tensor.random ~seed:(n + 77) [| n; n |] in
      let sa = Tensor.map (fun x -> alpha *. x) a in
      let lhs = Reference.gemm ~out_dtype:Dtype.F32 sa b in
      let rhs =
        Tensor.map (fun x -> alpha *. x) (Reference.gemm ~out_dtype:Dtype.F32 a b)
      in
      Tensor.max_abs_diff lhs rhs < 1e-4)

let test_softmax_rows_sum_to_one () =
  let x = Tensor.random ~seed:11 ~lo:(-5.0) ~hi:5.0 [| 6; 9 |] in
  let s = Reference.softmax x in
  for i = 0 to 5 do
    let sum = ref 0.0 in
    for j = 0 to 8 do
      sum := !sum +. Tensor.get2 s i j
    done;
    (* Entries are stored at single precision, so allow f32-level error. *)
    Alcotest.(check (float 1e-6)) "row sums to 1" 1.0 !sum
  done

let test_softmax_stability () =
  (* Large logits must not overflow. *)
  let x = Tensor.init [| 1; 3 |] (fun i -> 1e4 +. Float.of_int i.(1)) in
  let s = Reference.softmax x in
  Alcotest.(check bool) "finite" true (Float.is_finite (Tensor.get2 s 0 0))

(* FlashAttention-2-style online-softmax attention processed in KV
   blocks of [block] rows: the blocked recurrence the compiled kernels
   follow, which must agree with [Reference.attention]. *)
let attention_online ?(causal = false) ?scale ?(out_dtype = Dtype.F16)
    ?(block = 32) ~q ~k ~v () =
  let l = Tensor.dim q 0 and d = Tensor.dim q 1 in
  let lk = Tensor.dim k 0 in
  let scale = Option.value scale ~default:(1.0 /. sqrt (Float.of_int d)) in
  let out = Tensor.create ~dtype:out_dtype [| l; d |] in
  let acc = Array.make d 0.0 in
  for i = 0 to l - 1 do
    Array.fill acc 0 d 0.0;
    let m = ref Float.neg_infinity and denom = ref 0.0 in
    let jmax = if causal then i else lk - 1 in
    let nblocks = (jmax + block) / block in
    for b = 0 to nblocks - 1 do
      let j0 = b * block in
      let j1 = min jmax (j0 + block - 1) in
      (* Block-local max. *)
      let bm = ref Float.neg_infinity in
      let scores = Array.make (j1 - j0 + 1) 0.0 in
      for j = j0 to j1 do
        let s = ref 0.0 in
        for p = 0 to d - 1 do
          s := !s +. (Tensor.get2 q i p *. Tensor.get2 k j p)
        done;
        scores.(j - j0) <- !s *. scale;
        bm := Float.max !bm scores.(j - j0)
      done;
      let m_new = Float.max !m !bm in
      let correction = if !m = Float.neg_infinity then 0.0 else Float.exp (!m -. m_new) in
      for p = 0 to d - 1 do
        acc.(p) <- acc.(p) *. correction
      done;
      denom := !denom *. correction;
      for j = j0 to j1 do
        let e = Float.exp (scores.(j - j0) -. m_new) in
        denom := !denom +. e;
        for p = 0 to d - 1 do
          acc.(p) <- acc.(p) +. (e *. Tensor.get2 v j p)
        done
      done;
      m := m_new
    done;
    for p = 0 to d - 1 do
      Tensor.set2 out i p (acc.(p) /. !denom)
    done
  done;
  out

let test_attention_online_matches_direct () =
  List.iter
    (fun causal ->
      let l = 24 and d = 8 in
      let q = Tensor.random ~dtype:Dtype.F16 ~seed:21 [| l; d |] in
      let k = Tensor.random ~dtype:Dtype.F16 ~seed:22 [| l; d |] in
      let v = Tensor.random ~dtype:Dtype.F16 ~seed:23 [| l; d |] in
      let direct = Reference.attention ~causal ~out_dtype:Dtype.F32 ~q ~k ~v () in
      let online =
        attention_online ~causal ~out_dtype:Dtype.F32 ~block:7 ~q ~k ~v ()
      in
      Alcotest.(check bool)
        (Printf.sprintf "online = direct (causal=%b)" causal)
        true
        (Tensor.max_abs_diff direct online < 1e-4))
    [ false; true ]

let test_attention_uniform_values () =
  (* With V constant, attention output is that constant regardless of scores. *)
  let l = 10 and d = 4 in
  let q = Tensor.random ~seed:31 [| l; d |] in
  let k = Tensor.random ~seed:32 [| l; d |] in
  let v = Tensor.init [| l; d |] (fun _ -> 0.75) in
  let o = Reference.attention ~out_dtype:Dtype.F32 ~q ~k ~v () in
  Alcotest.(check bool) "constant out" true (Tensor.max_abs_diff o v < 1e-9)

let test_causal_first_row () =
  (* Row 0 of causal attention attends only to position 0: output = V[0]. *)
  let l = 6 and d = 3 in
  let q = Tensor.random ~seed:41 [| l; d |] in
  let k = Tensor.random ~seed:42 [| l; d |] in
  let v = Tensor.random ~seed:43 [| l; d |] in
  let o = Reference.attention ~causal:true ~out_dtype:Dtype.F32 ~q ~k ~v () in
  for p = 0 to d - 1 do
    Alcotest.(check (float 1e-9)) "row0 = v0" (Tensor.get2 v 0 p) (Tensor.get2 o 0 p)
  done

let test_flop_counts () =
  Alcotest.(check (float 1.0)) "gemm flops" 2e9
    (Reference.gemm_flops ~m:1000 ~n:1000 ~k:1000);
  let f = Reference.attention_flops ~batch:2 ~heads:4 ~len:128 ~head_dim:64 () in
  Alcotest.(check (float 1.0)) "mha flops" (4.0 *. 128. *. 128. *. 64. *. 8.) f;
  let fc = Reference.attention_flops ~causal:true ~batch:2 ~heads:4 ~len:128 ~head_dim:64 () in
  Alcotest.(check (float 1.0)) "causal halves" (f /. 2.0) fc

(* ------------------------------------------------------------------ *)
(* Bulk contiguous-slice kernels vs scalar get_flat/set_flat loops     *)
(* ------------------------------------------------------------------ *)

(* The vectorized span kernels (blit/axpy/store/reduce over contiguous
   payload slices) must be bit-identical to the per-element accessor
   loops they replaced, across dtypes and at deliberately non-aligned
   offsets. Spans live inside 1-D tensors of length 40 with offsets up
   to 9 and lengths up to 24, so every case exercises interior,
   unaligned windows. *)

let slice_dt = function 0 -> Dtype.F32 | 1 -> Dtype.F16 | _ -> Dtype.F8E4M3

(* ((src dtype, dst dtype), ((len, (soff, doff)), seed)) *)
let slice_args =
  QCheck.(
    pair
      (pair (int_range 0 2) (int_range 0 2))
      (pair (pair (int_range 0 24) (pair (int_range 0 9) (int_range 0 9))) small_int))

let slice_tensors ~sdt ~ddt ~seed =
  let src = Tensor.random ~dtype:sdt ~seed:(seed + 1) ~lo:(-4.0) ~hi:4.0 [| 40 |] in
  let dst = Tensor.random ~dtype:ddt ~seed:(seed + 7777) ~lo:(-4.0) ~hi:4.0 [| 40 |] in
  (src, dst)

let prop_axpy_raw_matches_scalar =
  QCheck.Test.make ~name:"axpy_raw = scalar float loop" ~count:400
    QCheck.(pair slice_args (float_range (-2.0) 2.0))
    (fun (((_, _), ((len, (soff, doff)), seed)), alpha) ->
      let src, dst = slice_tensors ~sdt:Dtype.F32 ~ddt:Dtype.F32 ~seed in
      let expect = Array.copy dst.Tensor.data in
      for i = 0 to len - 1 do
        expect.(doff + i) <-
          expect.(doff + i) +. (alpha *. src.Tensor.data.(soff + i))
      done;
      Tensor.axpy_raw ~alpha src.Tensor.data ~soff dst.Tensor.data ~doff ~len;
      dst.Tensor.data = expect)

let prop_store_slice_matches_scalar =
  QCheck.Test.make ~name:"store_slice = quantizing set_flat loop" ~count:400
    slice_args
    (fun ((_, di), ((len, (soff, doff)), seed)) ->
      (* Raw (unquantized) f32 source span into a quantizing payload. *)
      let raw = Tensor.random ~dtype:Dtype.F32 ~seed:(seed + 3) ~lo:(-4.0) ~hi:4.0 [| 40 |] in
      let _, dst = slice_tensors ~sdt:Dtype.F32 ~ddt:(slice_dt di) ~seed in
      let expect = Tensor.cast (Tensor.dtype dst) dst in
      for i = 0 to len - 1 do
        Tensor.set_flat expect (doff + i) raw.Tensor.data.(soff + i)
      done;
      Tensor.store_slice ~dst ~doff raw.Tensor.data ~soff ~len;
      Tensor.equal dst expect)

let prop_reduce_slice_matches_scalar =
  QCheck.Test.make ~name:"reduce_slice = quantizing fold (sum, max)" ~count:400
    slice_args
    (fun ((si, _), ((len, (soff, _)), seed)) ->
      let dt = slice_dt si in
      let t, _ = slice_tensors ~sdt:dt ~ddt:dt ~seed in
      List.for_all
        (fun f ->
          let init = Tensor.quantize dt 0.0 in
          let expect = ref init in
          for i = 0 to len - 1 do
            expect := Tensor.quantize dt (f !expect (Tensor.get_flat t (soff + i)))
          done;
          Tensor.reduce_slice f ~init t ~off:soff ~len = !expect)
        [ ( +. ); Float.max ])

let prop_cast_matches_scalar =
  QCheck.Test.make ~name:"cast = per-element quantize" ~count:200
    QCheck.(pair (pair (int_range 0 2) (int_range 0 2)) small_int)
    (fun ((si, di), seed) ->
      let t = Tensor.random ~dtype:(slice_dt si) ~seed:(seed + 5) ~lo:(-4.0) ~hi:4.0 [| 7; 5 |] in
      let out = Tensor.cast (slice_dt di) t in
      let expect = Tensor.create ~dtype:(slice_dt di) [| 7; 5 |] in
      for i = 0 to Tensor.numel t - 1 do
        Tensor.set_flat expect i (Tensor.get_flat t i)
      done;
      Tensor.equal out expect)

let prop_gemm_bit_identical_to_textbook =
  (* Reference.gemm's k-outer row-axpy form performs, per output
     element, the identical p-ascending add sequence and single final
     quantize as the textbook i-j-p loop — bit-for-bit. *)
  QCheck.Test.make ~name:"gemm k-outer = textbook i-j-p, bit-identical" ~count:60
    QCheck.(pair (pair (int_range 1 9) (pair (int_range 1 9) (int_range 1 9))) small_int)
    (fun ((m, (n, k)), seed) ->
      let a = Tensor.random ~dtype:Dtype.F16 ~seed:(seed + 11) [| m; k |] in
      let b = Tensor.random ~dtype:Dtype.F16 ~seed:(seed + 13) [| k; n |] in
      let expect = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          let acc = ref 0.0 in
          for p = 0 to k - 1 do
            acc := !acc +. (Tensor.get2 a i p *. Tensor.get2 b p j)
          done;
          Tensor.set2 expect i j !acc
        done
      done;
      Tensor.equal (Reference.gemm a b) expect)

(* --------------------- tile payload kernels ---------------------- *)

(* The engine and both test references share [Tile]'s kernels, so the
   engine-vs-oracle differential cannot see a change in them; these
   properties pin each kernel to its scalar definition, bit for bit. *)

module Tile = Tawa_ir.Tile
module Op = Tawa_ir.Op

let same_bits (x : Tensor.t) (y : Tensor.t) =
  Tensor.dtype x = Tensor.dtype y
  && Tensor.shape x = Tensor.shape y
  && Array.for_all2
       (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
       x.Tensor.data y.Tensor.data

(* The i-j-p loop: each element starts from its [acc] cell, adds its
   products with p ascending, and is quantized once. *)
let dot_ijp a b acc =
  let m = Tensor.dim a 0 and k = Tensor.dim a 1 and n = Tensor.dim b 1 in
  let out = Tensor.create ~dtype:(Tensor.dtype acc) [| m; n |] in
  for i = 0 to m - 1 do
    for j = 0 to n - 1 do
      let s = ref (Tensor.get2 acc i j) in
      for p = 0 to k - 1 do
        s := !s +. (Tensor.get2 a i p *. Tensor.get2 b p j)
      done;
      Tensor.set2 out i j !s
    done
  done;
  out

let prop_dot_tiles_matches_ijp =
  QCheck.Test.make ~name:"dot_tiles = i-j-p loop + one quantize (B, B^T, in place)"
    ~count:300
    QCheck.(
      pair
        (pair (int_range 1 9) (pair (int_range 1 11) (int_range 0 9)))
        (pair (pair (int_range 0 2) (int_range 0 2)) small_int))
    (fun ((m, (n, k)), ((ii, ai), seed)) ->
      let idt = slice_dt ii and adt = slice_dt ai in
      let a = Tensor.random ~dtype:idt ~seed:(seed + 1) [| m; k |] in
      let b = Tensor.random ~dtype:idt ~seed:(seed + 2) [| k; n |] in
      let acc = Tensor.random ~dtype:adt ~seed:(seed + 3) ~lo:(-4.0) ~hi:4.0 [| m; n |] in
      let want = dot_ijp a b acc in
      let plain = Tile.dot_tiles a b acc in
      let trans = Tile.dot_tiles ~trans_b:true a (Tensor.transpose2 b) acc in
      let cell = Tensor.cast adt acc in
      let in_place = Tile.dot_tiles ~into:cell a b cell in
      same_bits plain want && same_bits trans want && in_place == cell
      && same_bits in_place want)

(* The index-decoding broadcast loop. *)
let broadcast_scalar t shape =
  let src = Tensor.shape t in
  Tensor.init ~dtype:(Tensor.dtype t) (Array.of_list shape) (fun idx ->
      Tensor.get t (Array.mapi (fun i d -> if src.(i) = 1 then 0 else d) idx))

let prop_broadcast_matches_scalar =
  QCheck.Test.make ~name:"broadcast_to = index-decoding loop" ~count:300
    QCheck.(
      pair (pair (int_range 1 7) (int_range 1 9))
        (pair (int_range 0 4) (pair (int_range 0 2) small_int)))
    (fun ((m, n), (form, (di, seed))) ->
      let dtype = slice_dt di in
      let src, target =
        match form with
        | 0 -> ([| m; 1 |], [ m; n ])
        | 1 -> ([| 1; n |], [ m; n ])
        | 2 -> ([| m; n |], [ m; n ])
        | 3 -> ([| 1; 1 |], [ m; n ])
        | _ -> ([| 1 |], [ n ])
      in
      let t = Tensor.random ~dtype ~seed ~lo:(-4.0) ~hi:4.0 src in
      let want = broadcast_scalar t target in
      let into = Tensor.random ~dtype ~seed:(seed + 9) (Array.of_list target) in
      let fresh = Tile.broadcast_to t target in
      let reused = Tile.broadcast_to ~into t target in
      let self = Tile.broadcast_to ~into:t t target in
      same_bits fresh want && reused == into && same_bits reused want && self != t
      && same_bits self want)

let prop_transpose_matches_scalar =
  QCheck.Test.make ~name:"transpose2 = get2/set2 loop" ~count:200
    QCheck.(pair (pair (int_range 0 9) (int_range 0 9)) (pair (int_range 0 2) small_int))
    (fun ((m, n), (di, seed)) ->
      let dtype = slice_dt di in
      let t = Tensor.random ~dtype ~seed ~lo:(-4.0) ~hi:4.0 [| m; n |] in
      let want = Tensor.create ~dtype [| n; m |] in
      for i = 0 to m - 1 do
        for j = 0 to n - 1 do
          Tensor.set2 want j i (Tensor.get2 t i j)
        done
      done;
      same_bits (Tensor.transpose2 t) want)

(* F32 operands salted with the values on which ops differ: signed
   zeros, NaN, infinities, equal pairs. *)
let salted_f32 ~seed m n =
  let x = Tensor.random ~seed ~lo:(-6.0) ~hi:6.0 [| m; n |] in
  let y = Tensor.random ~seed:(seed + 1) ~lo:(-6.0) ~hi:6.0 [| m; n |] in
  let salt =
    [| (0.0, -0.0); (-0.0, 0.0); (Float.nan, 1.0); (2.0, Float.nan); (Float.infinity, 3.0);
       (-1.5, Float.neg_infinity); (2.5, 2.5) |]
  in
  Array.iteri
    (fun i (u, v) ->
      let at = ((seed * 7) + (i * 5)) mod (m * n) in
      x.Tensor.data.(at) <- u;
      y.Tensor.data.(at) <- v)
    salt;
  (x, y)

let prop_f32_loops_match_generic =
  QCheck.Test.make ~name:"F32 unop/binop/reduce loops = map/map2/reduce_slice" ~count:100
    QCheck.(pair (pair (int_range 1 6) (int_range 1 9)) small_int)
    (fun ((m, n), seed) ->
      let x, y = salted_f32 ~seed m n in
      let unop op =
        let want = Tensor.map (Tile.float_unop op) x in
        same_bits (Tile.unop_tile op x) want
        && same_bits (Tile.unop_tile ~into:(Tensor.copy x) op x) want
        && (let self = Tensor.copy x in
            Tile.unop_tile ~into:self op self == self && same_bits self want)
      in
      let binop op =
        let want = Tensor.map2 (Tile.float_binop op) x y in
        same_bits (Tile.binop_tile op x y) want
        && (let a = Tensor.copy x in
            Tile.binop_tile ~into:a op a y == a && same_bits a want)
        && (let b = Tensor.copy y in
            Tile.binop_tile ~into:b op x b == b && same_bits b want)
      in
      let reduce (kind, init, op) =
        let want = Tensor.create [| m |] in
        for g = 0 to m - 1 do
          want.Tensor.data.(g) <-
            Tensor.reduce_slice (Tile.float_binop op) ~init x ~off:(g * n) ~len:n
        done;
        same_bits (Tile.reduce_tensor kind 1 x) want
      in
      List.for_all unop Op.[ Neg; Exp; Exp2; Log; Log2; Sqrt; Rsqrt; Abs; Not ]
      && List.for_all binop Op.[ Add; Sub; Mul; Div; Rem; Min; Max; And; Or; Xor ]
      && List.for_all reduce
           Op.
             [ (Red_max, Float.neg_infinity, Max); (Red_min, Float.infinity, Min);
               (Red_sum, 0.0, Add) ])

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "tensor.dtype",
      [
        Alcotest.test_case "sizes" `Quick test_dtype_sizes;
        Alcotest.test_case "strings" `Quick test_dtype_strings;
        Alcotest.test_case "classes" `Quick test_dtype_classes;
      ] );
    ( "tensor.fp16",
      [
        Alcotest.test_case "known values" `Quick test_fp16_known_values;
        Alcotest.test_case "overflow" `Quick test_fp16_overflow;
        Alcotest.test_case "underflow" `Quick test_fp16_underflow;
        Alcotest.test_case "nan" `Quick test_fp16_nan;
        Alcotest.test_case "round to even" `Quick test_fp16_round_to_even;
        Alcotest.test_case "exhaustive roundtrip" `Quick test_fp16_exhaustive_roundtrip;
        Alcotest.test_case "branch-free rounding" `Quick test_fp16_branch_free_rounding;
      ] );
    qsuite "tensor.fp16.props" [ prop_fp16_idempotent; prop_fp16_monotone; prop_fp16_error_bound ];
    ( "tensor.fp8",
      [
        Alcotest.test_case "known values" `Quick test_fp8_known_values;
        Alcotest.test_case "saturation" `Quick test_fp8_saturation;
        Alcotest.test_case "nan" `Quick test_fp8_nan;
        Alcotest.test_case "exhaustive roundtrip" `Quick test_fp8_exhaustive_roundtrip;
      ] );
    qsuite "tensor.fp8.props" [ prop_fp8_idempotent; prop_fp8_nearest ];
    ( "tensor.core",
      [
        Alcotest.test_case "create/get/set" `Quick test_tensor_create_get_set;
        Alcotest.test_case "out of bounds" `Quick test_tensor_oob;
        Alcotest.test_case "quantization on set" `Quick test_tensor_quantization;
        Alcotest.test_case "init/iteri" `Quick test_tensor_init_iteri;
        Alcotest.test_case "slice/blit" `Quick test_tensor_slice_blit;
        Alcotest.test_case "transpose" `Quick test_tensor_transpose;
        Alcotest.test_case "cast" `Quick test_tensor_cast;
        Alcotest.test_case "random deterministic" `Quick test_tensor_random_deterministic;
      ] );
    qsuite "tensor.core.props" [ prop_tensor_map2_add_comm; prop_transpose_involution ];
    ( "tensor.reference",
      [
        Alcotest.test_case "gemm identity" `Quick test_gemm_identity;
        Alcotest.test_case "gemm known" `Quick test_gemm_known;
        Alcotest.test_case "gemm rectangular" `Quick test_gemm_rect;
        Alcotest.test_case "softmax rows" `Quick test_softmax_rows_sum_to_one;
        Alcotest.test_case "softmax stability" `Quick test_softmax_stability;
        Alcotest.test_case "attention online=direct" `Quick test_attention_online_matches_direct;
        Alcotest.test_case "attention uniform V" `Quick test_attention_uniform_values;
        Alcotest.test_case "causal first row" `Quick test_causal_first_row;
        Alcotest.test_case "flop counts" `Quick test_flop_counts;
      ] );
    qsuite "tensor.reference.props" [ prop_gemm_linear ];
    qsuite "tensor.slices.props"
      [ prop_axpy_raw_matches_scalar; prop_store_slice_matches_scalar;
        prop_reduce_slice_matches_scalar; prop_cast_matches_scalar;
        prop_gemm_bit_identical_to_textbook; prop_dot_tiles_matches_ijp;
        prop_broadcast_matches_scalar; prop_transpose_matches_scalar;
        prop_f32_loops_match_generic ];
  ]
