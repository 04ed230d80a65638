(** Dense row-major tensors.

    Payloads are stored as OCaml [float]s, but every store quantizes
    through the tensor's dtype codec so that a tensor only ever holds
    values representable at its precision. This is how the functional
    simulator reproduces FP16/FP8 tile arithmetic without bit-level
    emulation of every intermediate. *)

type t = {
  dtype : Dtype.t;
  shape : int array;
  strides : int array;
  data : float array;
}

let numel_of_shape shape = Array.fold_left ( * ) 1 shape

let strides_of_shape shape =
  let n = Array.length shape in
  let strides = Array.make n 1 in
  for i = n - 2 downto 0 do
    strides.(i) <- strides.(i + 1) * shape.(i + 1)
  done;
  strides

let quantize dtype v =
  match (dtype : Dtype.t) with
  (* F32 payloads are identity: both the simulator and the reference
     interpreter accumulate in the same OCaml floats, so the
     single-precision round-trip bought nothing but two boxed Int32
     conversions on every store of every hot loop. *)
  | F32 -> v
  | F16 -> Fp16.round v
  | F8E4M3 -> Fp8.round v
  | I32 -> Float.of_int (int_of_float v)
  | I1 -> if v <> 0.0 then 1.0 else 0.0

let create ?(dtype = Dtype.F32) shape =
  {
    dtype;
    shape = Array.copy shape;
    strides = strides_of_shape shape;
    data = Array.make (numel_of_shape shape) 0.0;
  }

(** [into] when it is a [dtype] tensor of [shape], else a fresh zero
    tensor: the destination of a kernel that may overwrite a payload
    its caller owns. *)
let reuse ?into ~dtype shape =
  match into with
  | Some o when o.dtype = dtype && o.shape = shape -> o
  | _ -> create ~dtype shape

let numel t = Array.length t.data
let dtype t = t.dtype
let shape t = Array.copy t.shape
let dim t i = t.shape.(i)
let rank t = Array.length t.shape

let shape_equal a b = a.shape = b.shape

let linear_index t idx =
  let n = Array.length idx in
  if n <> Array.length t.shape then
    invalid_arg "Tensor.linear_index: rank mismatch";
  let off = ref 0 in
  for i = 0 to n - 1 do
    let d = idx.(i) in
    if d < 0 || d >= t.shape.(i) then
      invalid_arg
        (Printf.sprintf "Tensor.linear_index: index %d out of bounds for dim %d (size %d)"
           d i t.shape.(i));
    off := !off + (d * t.strides.(i))
  done;
  !off

let get t idx = t.data.(linear_index t idx)
let set t idx v = t.data.(linear_index t idx) <- quantize t.dtype v

(* Flat accessors used by hot loops; [set_flat] still quantizes. *)
let get_flat t i = t.data.(i)
let set_flat t i v = t.data.(i) <- quantize t.dtype v

let fill t v =
  let v = quantize t.dtype v in
  Array.fill t.data 0 (Array.length t.data) v

let init ?(dtype = Dtype.F32) shape f =
  let t = create ~dtype shape in
  let n = Array.length shape in
  let idx = Array.make n 0 in
  let total = numel t in
  for lin = 0 to total - 1 do
    (* Decode [lin] into [idx]. *)
    let r = ref lin in
    for i = n - 1 downto 0 do
      idx.(i) <- !r mod shape.(i);
      r := !r / shape.(i)
    done;
    t.data.(lin) <- quantize dtype (f idx)
  done;
  t

let copy t =
  { t with shape = Array.copy t.shape; strides = Array.copy t.strides;
           data = Array.copy t.data }

(* ------------------ bulk contiguous-slice kernels ------------------
   Hot tile ops (MMA accumulation, TMA copies, reductions) operate on
   contiguous row spans. These kernels validate the span bounds once
   and then run dtype-specialized element loops with the [quantize]
   dispatch hoisted out, exactly value-equivalent to per-element
   [get_flat]/[set_flat] loops (the QCheck suite pins this). *)

let check_span name src_len soff dst_len doff len =
  if
    len < 0 || soff < 0 || doff < 0 || soff + len > src_len
    || doff + len > dst_len
  then
    invalid_arg
      (Printf.sprintf "%s: span out of bounds (soff=%d doff=%d len=%d)" name
         soff doff len)

(** [axpy_raw ~alpha src ~soff dst ~doff ~len] accumulates
    [dst.(doff+i) <- dst.(doff+i) +. alpha *. src.(soff+i)] over a
    contiguous span of raw float arrays — unquantized f32 accumulation,
    the WGMMA-accumulator inner loop. *)
let axpy_raw ~alpha (src : float array) ~soff (dst : float array) ~doff ~len =
  check_span "Tensor.axpy_raw" (Array.length src) soff (Array.length dst) doff
    len;
  for i = 0 to len - 1 do
    Array.unsafe_set dst (doff + i)
      (Array.unsafe_get dst (doff + i)
      +. (alpha *. Array.unsafe_get src (soff + i)))
  done

(** [store_slice ~dst ~doff src ~soff ~len] writes a raw float span
    into [dst]'s payload, quantizing through [dst]'s dtype ([set_flat]
    semantics with the dispatch hoisted; F32 is one [Array.blit]). *)
let store_slice ~(dst : t) ~doff (src : float array) ~soff ~len =
  check_span "Tensor.store_slice" (Array.length src) soff
    (Array.length dst.data) doff len;
  let d = dst.data in
  match dst.dtype with
  | Dtype.F32 -> Array.blit src soff d doff len
  | Dtype.F16 -> Fp16.round_span src ~soff d ~doff ~len
  | Dtype.F8E4M3 ->
    for i = 0 to len - 1 do
      Array.unsafe_set d (doff + i) (Fp8.round (Array.unsafe_get src (soff + i)))
    done
  | Dtype.I32 ->
    for i = 0 to len - 1 do
      Array.unsafe_set d (doff + i)
        (Float.of_int (int_of_float (Array.unsafe_get src (soff + i))))
    done
  | Dtype.I1 ->
    for i = 0 to len - 1 do
      Array.unsafe_set d (doff + i)
        (if Array.unsafe_get src (soff + i) <> 0.0 then 1.0 else 0.0)
    done

(** Sequential fold over a contiguous span with the accumulator
    requantized through [t]'s dtype after every step — the semantics of
    folding through a tensor cell with [get]/[set], dispatch hoisted.
    [init] must already be quantized at [t]'s dtype (as a stored
    initial cell would be). *)
let reduce_slice f ~init (t : t) ~off ~len =
  check_span "Tensor.reduce_slice" (Array.length t.data) off
    (Array.length t.data) off len;
  let d = t.data in
  let acc = ref init in
  (match t.dtype with
  | Dtype.F32 ->
    for i = off to off + len - 1 do
      acc := f !acc (Array.unsafe_get d i)
    done
  | Dtype.F16 ->
    for i = off to off + len - 1 do
      acc := Fp16.round (f !acc (Array.unsafe_get d i))
    done
  | Dtype.F8E4M3 ->
    for i = off to off + len - 1 do
      acc := Fp8.round (f !acc (Array.unsafe_get d i))
    done
  | Dtype.I32 ->
    for i = off to off + len - 1 do
      acc := Float.of_int (int_of_float (f !acc (Array.unsafe_get d i)))
    done
  | Dtype.I1 ->
    for i = off to off + len - 1 do
      acc := if f !acc (Array.unsafe_get d i) <> 0.0 then 1.0 else 0.0
    done);
  !acc

let cast ?into dtype t =
  let out = reuse ?into ~dtype t.shape in
  (* Same dtype: the payload is already quantized at [dtype], so a raw
     copy is identical. *)
  if dtype = t.dtype then Array.blit t.data 0 out.data 0 (numel t)
  else store_slice ~dst:out ~doff:0 t.data ~soff:0 ~len:(numel t);
  out

(* Bulk elementwise kernels. The [quantize] dispatch is hoisted out of
   the element loop into one dtype match around dtype-specialized
   loops; F32 (the common functional-mode payload) is the identity, so
   its loop body is a raw array write. Value-identical to quantizing
   per element. *)

(* [map_into f ~dst t] writes [map f t] into [dst], which has [t]'s
   dtype and extent and may be [t] itself. *)
let map_into f ~dst:out t =
  let n = Array.length t.data in
  let src = t.data and dst = out.data in
  (match t.dtype with
  | Dtype.F32 ->
    for i = 0 to n - 1 do
      dst.(i) <- f src.(i)
    done
  | Dtype.F16 ->
    for i = 0 to n - 1 do
      dst.(i) <- Fp16.round (f src.(i))
    done
  | Dtype.F8E4M3 ->
    for i = 0 to n - 1 do
      dst.(i) <- Fp8.round (f src.(i))
    done
  | Dtype.I32 ->
    for i = 0 to n - 1 do
      dst.(i) <- Float.of_int (int_of_float (f src.(i)))
    done
  | Dtype.I1 ->
    for i = 0 to n - 1 do
      dst.(i) <- (if f src.(i) <> 0.0 then 1.0 else 0.0)
    done)

let map f t =
  let out = create ~dtype:t.dtype t.shape in
  map_into f ~dst:out t;
  out

(* [map2_into f ~dst a b] writes [map2 f a b] into [dst], which has
   [a]'s dtype and extent and may be [a] or [b]. *)
let map2_into f ~dst:out a b =
  if not (shape_equal a b) then invalid_arg "Tensor.map2: shape mismatch";
  let n = Array.length a.data in
  let xa = a.data and xb = b.data and dst = out.data in
  (match a.dtype with
  | Dtype.F32 ->
    for i = 0 to n - 1 do
      dst.(i) <- f xa.(i) xb.(i)
    done
  | Dtype.F16 ->
    for i = 0 to n - 1 do
      dst.(i) <- Fp16.round (f xa.(i) xb.(i))
    done
  | Dtype.F8E4M3 ->
    for i = 0 to n - 1 do
      dst.(i) <- Fp8.round (f xa.(i) xb.(i))
    done
  | Dtype.I32 ->
    for i = 0 to n - 1 do
      dst.(i) <- Float.of_int (int_of_float (f xa.(i) xb.(i)))
    done
  | Dtype.I1 ->
    for i = 0 to n - 1 do
      dst.(i) <- (if f xa.(i) xb.(i) <> 0.0 then 1.0 else 0.0)
    done)

let map2 f a b =
  let out = create ~dtype:a.dtype a.shape in
  map2_into f ~dst:out a b;
  out

(** Elementwise predicate into a fresh I1 mask: [cmp pred a b].(i) is 1.0
    iff [pred a.(i) b.(i)]. Iterates over [a]'s extent (the simulator's
    tile-cmp contract: operands share it by construction). *)
let cmp pred a b =
  let out = create ~dtype:Dtype.I1 a.shape in
  let n = Array.length a.data in
  let xa = a.data and xb = b.data and dst = out.data in
  for i = 0 to n - 1 do
    dst.(i) <- (if pred xa.(i) xb.(i) then 1.0 else 0.0)
  done;
  out

(** Elementwise select: where [cond] is nonzero take [a], else [b];
    result has [a]'s dtype, so [b]'s payload requantizes through it
    (identity when dtypes agree, as per-element [set_flat] did). *)
let select cond a b =
  let out = create ~dtype:a.dtype a.shape in
  let n = Array.length a.data in
  let xc = cond.data and xa = a.data and xb = b.data and dst = out.data in
  (match a.dtype with
  | Dtype.F32 ->
    for i = 0 to n - 1 do
      dst.(i) <- (if xc.(i) <> 0.0 then xa.(i) else xb.(i))
    done
  | Dtype.F16 ->
    for i = 0 to n - 1 do
      dst.(i) <- Fp16.round (if xc.(i) <> 0.0 then xa.(i) else xb.(i))
    done
  | Dtype.F8E4M3 ->
    for i = 0 to n - 1 do
      dst.(i) <- Fp8.round (if xc.(i) <> 0.0 then xa.(i) else xb.(i))
    done
  | Dtype.I32 ->
    for i = 0 to n - 1 do
      dst.(i) <- Float.of_int (int_of_float (if xc.(i) <> 0.0 then xa.(i) else xb.(i)))
    done
  | Dtype.I1 ->
    for i = 0 to n - 1 do
      dst.(i) <- (if (if xc.(i) <> 0.0 then xa.(i) else xb.(i)) <> 0.0 then 1.0 else 0.0)
    done);
  out

(** Same payload, new shape. The source is already quantized at its own
    dtype, so the copy is one flat blit. *)
let reshape t shape =
  let out = create ~dtype:t.dtype shape in
  Array.blit t.data 0 out.data 0 (Array.length t.data);
  out

let iteri f t =
  let n = rank t in
  let idx = Array.make n 0 in
  for lin = 0 to numel t - 1 do
    let r = ref lin in
    for i = n - 1 downto 0 do
      idx.(i) <- !r mod t.shape.(i);
      r := !r / t.shape.(i)
    done;
    f idx t.data.(lin)
  done

(* 2-D convenience accessors for tile math. *)
let get2 t i j = t.data.((i * t.strides.(0)) + j)
let set2 t i j v = t.data.((i * t.strides.(0)) + j) <- quantize t.dtype v

(** Copy a 2-D window [rows x cols] starting at (r0, c0) of [src] into a
    fresh tensor of dtype [dtype]. Out-of-bounds elements read as 0.0
    (TMA-style boundary fill). *)
let slice2 ?dtype src ~r0 ~c0 ~rows ~cols =
  let dtype = Option.value dtype ~default:src.dtype in
  if rank src <> 2 then invalid_arg "Tensor.slice2: rank <> 2";
  let out = create ~dtype [| rows; cols |] in
  let sr = dim src 0 and sc = dim src 1 in
  if dtype = src.dtype then begin
    (* Bulk row path (the TMA copy loop): the source payload is
       already quantized at [dtype], so per-element requantization is
       the identity and each row's in-bounds span is one [Array.blit]. *)
    let cs = max 0 c0 and ce = min sc (c0 + cols) in
    let len = ce - cs in
    if len > 0 then
      for i = 0 to rows - 1 do
        let r = r0 + i in
        if r >= 0 && r < sr then
          Array.blit src.data ((r * src.strides.(0)) + cs) out.data
            ((i * cols) + (cs - c0)) len
      done
  end
  else
    for i = 0 to rows - 1 do
      let r = r0 + i in
      if r >= 0 && r < sr then
        for j = 0 to cols - 1 do
          let c = c0 + j in
          if c >= 0 && c < sc then set2 out i j (get2 src r c)
        done
    done;
  out

(** Write a 2-D tile back into [dst] at (r0, c0), clipping out-of-bounds
    elements (TMA-style boundary clipping on store). *)
let blit2 ~dst ~r0 ~c0 tile =
  if rank dst <> 2 || rank tile <> 2 then invalid_arg "Tensor.blit2: rank <> 2";
  let dr = dim dst 0 and dc = dim dst 1 in
  let tr = dim tile 0 and tc = dim tile 1 in
  if dst.dtype = tile.dtype then begin
    (* Bulk row path (TMA store-out): tile payloads are already
       quantized at the destination dtype, so each row's clipped span
       is one [Array.blit]. *)
    let cs = max 0 c0 and ce = min dc (c0 + tc) in
    let len = ce - cs in
    if len > 0 then
      for i = 0 to tr - 1 do
        let r = r0 + i in
        if r >= 0 && r < dr then
          Array.blit tile.data ((i * tc) + (cs - c0)) dst.data
            ((r * dst.strides.(0)) + cs) len
      done
  end
  else
    for i = 0 to tr - 1 do
      let r = r0 + i in
      if r >= 0 && r < dr then
        for j = 0 to tc - 1 do
          let c = c0 + j in
          if c >= 0 && c < dc then set2 dst r c (get2 tile i j)
        done
    done

(* The payload is already quantized at its own dtype, so moving it
   needs no requantize. *)
let transpose2 t =
  if rank t <> 2 then invalid_arg "Tensor.transpose2: rank <> 2";
  let rows = dim t 0 and cols = dim t 1 in
  let out = create ~dtype:t.dtype [| cols; rows |] in
  let s = t.data and d = out.data in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      Array.unsafe_set d ((j * rows) + i) (Array.unsafe_get s ((i * cols) + j))
    done
  done;
  out

let max_abs_diff a b =
  if not (shape_equal a b) then invalid_arg "Tensor.max_abs_diff: shape mismatch";
  let m = ref 0.0 in
  for i = 0 to numel a - 1 do
    let d = Float.abs (a.data.(i) -. b.data.(i)) in
    if d > !m then m := d
  done;
  !m

(** Relative error metric robust to large magnitudes:
    max |a-b| / (1 + max(|a|,|b|)). *)
let max_rel_diff a b =
  if not (shape_equal a b) then invalid_arg "Tensor.max_rel_diff: shape mismatch";
  let m = ref 0.0 in
  for i = 0 to numel a - 1 do
    let x = a.data.(i) and y = b.data.(i) in
    let d = Float.abs (x -. y) /. (1.0 +. Float.max (Float.abs x) (Float.abs y)) in
    if d > !m then m := d
  done;
  !m

let approx_equal ?(tol = 1e-6) a b =
  shape_equal a b && max_rel_diff a b <= tol

let equal a b =
  shape_equal a b && a.dtype = b.dtype && a.data = b.data

(* Deterministic pseudo-random generation for tests and benchmarks. *)
let random ?(dtype = Dtype.F32) ?(lo = -1.0) ?(hi = 1.0) ~seed shape =
  let state = ref (Int64.of_int (seed lxor 0x5deece66)) in
  let next () =
    (* SplitMix64 step. *)
    state := Int64.add !state 0x9e3779b97f4a7c15L;
    let z = !state in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xbf58476d1ce4e5b9L in
    let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94d049bb133111ebL in
    let z = Int64.logxor z (Int64.shift_right_logical z 31) in
    Int64.to_float (Int64.shift_right_logical z 11) /. 9007199254740992.0
  in
  init ~dtype shape (fun _ -> lo +. ((hi -. lo) *. next ()))

let pp fmt t =
  Format.fprintf fmt "tensor<%s x %s>"
    (String.concat "x" (Array.to_list (Array.map string_of_int t.shape)))
    (Dtype.to_string t.dtype)

let to_string t = Format.asprintf "%a" pp t
