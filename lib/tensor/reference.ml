(** Reference (golden) implementations of the paper's workloads.

    Every compiled kernel — Tawa's and every baseline's — is verified in
    functional mode against these. Inputs are quantized at their dtype;
    accumulation is single precision, matching WGMMA's FP32 accumulators. *)

(** C = A * B with A:[m,k], B:[k,n]. [out_dtype] controls the final
    quantization of C (the paper's GEMMs store FP16/FP8 inputs to an
    FP16 result with FP32 accumulation). *)
let gemm ?(out_dtype = Dtype.F16) a b =
  if Tensor.rank a <> 2 || Tensor.rank b <> 2 then invalid_arg "Reference.gemm: rank";
  let m = Tensor.dim a 0 and k = Tensor.dim a 1 in
  let k' = Tensor.dim b 0 and n = Tensor.dim b 1 in
  if k <> k' then invalid_arg "Reference.gemm: inner dim mismatch";
  let c = Tensor.create ~dtype:out_dtype [| m; n |] in
  (* k-outer row-axpy form: for each output row, fold A's row scalars
     against B's contiguous rows into an f32 accumulator row and
     quantize once at the end. Per output element this performs the
     identical add sequence (p ascending) and single final quantize as
     the textbook i-j-p loop, so results are bit-identical — but the
     inner loop is a bulk contiguous [Tensor.axpy_raw]. *)
  let sa = a.Tensor.strides.(0) and sb = b.Tensor.strides.(0) in
  let buf = Array.make n 0.0 in
  for i = 0 to m - 1 do
    Array.fill buf 0 n 0.0;
    for p = 0 to k - 1 do
      Tensor.axpy_raw
        ~alpha:a.Tensor.data.((i * sa) + p)
        b.Tensor.data ~soff:(p * sb) buf ~doff:0 ~len:n
    done;
    Tensor.store_slice ~dst:c ~doff:(i * c.Tensor.strides.(0)) buf ~soff:0
      ~len:n
  done;
  c

(** Row-wise numerically-stable softmax of a 2-D tensor (f32). *)
let softmax x =
  let rows = Tensor.dim x 0 and cols = Tensor.dim x 1 in
  let out = Tensor.create ~dtype:Dtype.F32 [| rows; cols |] in
  for i = 0 to rows - 1 do
    let m = ref Float.neg_infinity in
    for j = 0 to cols - 1 do
      m := Float.max !m (Tensor.get2 x i j)
    done;
    let s = ref 0.0 in
    for j = 0 to cols - 1 do
      s := !s +. Float.exp (Tensor.get2 x i j -. !m)
    done;
    for j = 0 to cols - 1 do
      Tensor.set2 out i j (Float.exp (Tensor.get2 x i j -. !m) /. !s)
    done
  done;
  out

(** Single-head attention. Q:[l, d], K:[l, d], V:[l, d].
    O = softmax(Q K^T * scale + causal_mask) V, computed the direct way
    (materialize scores). *)
let attention ?(causal = false) ?scale ?(out_dtype = Dtype.F16) ~q ~k ~v () =
  let l = Tensor.dim q 0 and d = Tensor.dim q 1 in
  let lk = Tensor.dim k 0 in
  if Tensor.dim k 1 <> d || Tensor.dim v 1 <> d || Tensor.dim v 0 <> lk then
    invalid_arg "Reference.attention: shape mismatch";
  let scale = Option.value scale ~default:(1.0 /. sqrt (Float.of_int d)) in
  let out = Tensor.create ~dtype:out_dtype [| l; d |] in
  let scores = Array.make lk 0.0 in
  for i = 0 to l - 1 do
    let m = ref Float.neg_infinity in
    let valid j = (not causal) || j <= i in
    for j = 0 to lk - 1 do
      if valid j then begin
        let s = ref 0.0 in
        for p = 0 to d - 1 do
          s := !s +. (Tensor.get2 q i p *. Tensor.get2 k j p)
        done;
        scores.(j) <- !s *. scale;
        m := Float.max !m scores.(j)
      end
    done;
    let denom = ref 0.0 in
    for j = 0 to lk - 1 do
      if valid j then begin
        scores.(j) <- Float.exp (scores.(j) -. !m);
        denom := !denom +. scores.(j)
      end else scores.(j) <- 0.0
    done;
    for p = 0 to d - 1 do
      let acc = ref 0.0 in
      for j = 0 to lk - 1 do
        acc := !acc +. (scores.(j) *. Tensor.get2 v j p)
      done;
      Tensor.set2 out i p (!acc /. !denom)
    done
  done;
  out

(** FLOP counts used by the benchmark harness (multiply+add = 2 flops). *)
let gemm_flops ~m ~n ~k = 2.0 *. Float.of_int m *. Float.of_int n *. Float.of_int k

let attention_flops ?(causal = false) ~batch ~heads ~len ~head_dim () =
  (* Two GEMMs per head: QK^T (l*l*d) and PV (l*l*d). Causal halves the
     useful work, which is the convention FlashAttention uses. *)
  let base = 4.0 *. Float.of_int len *. Float.of_int len *. Float.of_int head_dim in
  let per_head = if causal then base /. 2.0 else base in
  per_head *. Float.of_int batch *. Float.of_int heads
