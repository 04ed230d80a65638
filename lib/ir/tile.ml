(** The tile payload kernels: the element-wise, broadcast, reduce and
    dot math of the tile IR's ops on {!Tawa_tensor.Tensor} payloads.

    The functional simulator ([Decode]'s [Tile_*] and [Wgmma]
    closures) computes every tile value with them, and the two test
    references, the sequential IR interpreter and the ISA oracle, call
    the same ones. So a change here is invisible to the engine-vs-oracle
    differentials; [tensor.slices.props] pins each kernel to its scalar
    definition instead. *)

open Tawa_tensor

let float_binop kind a b =
  match (kind : Op.binop) with
  | Add -> a +. b | Sub -> a -. b | Mul -> a *. b | Div -> a /. b
  | Rem -> Float.rem a b | Min -> Float.min a b | Max -> Float.max a b
  | And -> Float.of_int (int_of_float a land int_of_float b)
  | Or -> Float.of_int (int_of_float a lor int_of_float b)
  | Xor -> Float.of_int (int_of_float a lxor int_of_float b)

let float_unop kind a =
  match (kind : Op.unop) with
  | Neg -> -.a
  | Exp -> Float.exp a
  | Exp2 -> Float.exp2 a
  | Log -> Float.log a
  | Log2 -> Float.log a /. Float.log 2.0
  | Sqrt -> Float.sqrt a
  | Rsqrt -> 1.0 /. Float.sqrt a
  | Abs -> Float.abs a
  | Not -> if a <> 0.0 then 0.0 else 1.0

let cmp_pred kind a b =
  match (kind : Op.cmp) with
  | Eq -> a = b | Ne -> a <> b | Lt -> a < b | Le -> a <= b | Gt -> a > b | Ge -> a >= b

(* ----------------------- tile payload kernels ----------------------
   The functional simulator's tile math, shared with the test oracle.
   Each kernel writes into [?into] when that tensor has the result's
   dtype and shape ({!Tensor.reuse}), else into a fresh tensor. Each is
   bit-identical to the per-element definition it replaces: the same
   operation on the same operands in the same order, and one quantize
   per stored element. Payloads are invariantly quantized at their
   dtype, so moving one without a requantize is exact. F32, the dtype
   softmax runs in, gets one monomorphic loop per op: no closure call
   and no boxed float per element. *)

(* Float-array accessors typed so the compiler emits unboxed loads and
   stores; the bounds are checked once per tile by each kernel. *)
let[@inline] ( $ ) (a : float array) i = Array.unsafe_get a i
let[@inline] fset (a : float array) i (v : float) = Array.unsafe_set a i v

let unop_f32 kind (s : float array) (d : float array) =
  let n = min (Array.length s) (Array.length d) in
  match (kind : Op.unop) with
  | Neg -> for i = 0 to n - 1 do fset d i (-.(s $ i)) done
  | Exp -> for i = 0 to n - 1 do fset d i (Float.exp (s $ i)) done
  | Exp2 -> for i = 0 to n - 1 do fset d i (Float.exp2 (s $ i)) done
  | Log -> for i = 0 to n - 1 do fset d i (Float.log (s $ i)) done
  | Log2 -> for i = 0 to n - 1 do fset d i (Float.log (s $ i) /. Float.log 2.0) done
  | Sqrt -> for i = 0 to n - 1 do fset d i (Float.sqrt (s $ i)) done
  | Rsqrt -> for i = 0 to n - 1 do fset d i (1.0 /. Float.sqrt (s $ i)) done
  | Abs -> for i = 0 to n - 1 do fset d i (Float.abs (s $ i)) done
  | Not -> for i = 0 to n - 1 do fset d i (if s $ i <> 0.0 then 0.0 else 1.0) done

let binop_f32 kind (x : float array) (y : float array) (d : float array) =
  let n = min (Array.length x) (min (Array.length y) (Array.length d)) in
  match (kind : Op.binop) with
  | Add -> for i = 0 to n - 1 do fset d i ((x $ i) +. (y $ i)) done
  | Sub -> for i = 0 to n - 1 do fset d i ((x $ i) -. (y $ i)) done
  | Mul -> for i = 0 to n - 1 do fset d i ((x $ i) *. (y $ i)) done
  | Div -> for i = 0 to n - 1 do fset d i ((x $ i) /. (y $ i)) done
  | Rem -> for i = 0 to n - 1 do fset d i (Float.rem (x $ i) (y $ i)) done
  | Min -> for i = 0 to n - 1 do fset d i (Float.min (x $ i) (y $ i)) done
  | Max -> for i = 0 to n - 1 do fset d i (Float.max (x $ i) (y $ i)) done
  | And ->
    for i = 0 to n - 1 do
      fset d i (Float.of_int (int_of_float (x $ i) land int_of_float (y $ i)))
    done
  | Or ->
    for i = 0 to n - 1 do
      fset d i (Float.of_int (int_of_float (x $ i) lor int_of_float (y $ i)))
    done
  | Xor ->
    for i = 0 to n - 1 do
      fset d i (Float.of_int (int_of_float (x $ i) lxor int_of_float (y $ i)))
    done

(** [Tensor.map (float_unop kind) t]. [into] may be [t] itself. *)
let unop_tile ?into kind (t : Tensor.t) =
  let out = Tensor.reuse ?into ~dtype:t.Tensor.dtype t.Tensor.shape in
  (match t.Tensor.dtype with
  | Dtype.F32 -> unop_f32 kind t.Tensor.data out.Tensor.data
  | _ -> Tensor.map_into (float_unop kind) ~dst:out t);
  out

(** [Tensor.map2 (float_binop kind) a b]. [into] may be [a] or [b]. *)
let binop_tile ?into kind (a : Tensor.t) (b : Tensor.t) =
  if not (Tensor.shape_equal a b) then invalid_arg "Tensor.map2: shape mismatch";
  let out = Tensor.reuse ?into ~dtype:a.Tensor.dtype a.Tensor.shape in
  (match a.Tensor.dtype with
  | Dtype.F32 -> binop_f32 kind a.Tensor.data b.Tensor.data out.Tensor.data
  | _ -> Tensor.map2_into (float_binop kind) ~dst:out a b);
  out

(** Broadcast a tensor whose some dims are 1 to [shape]. A 2-D
    broadcast is row blits, or row fills from an [m,1] source. [into] is
    never the source. *)
let broadcast_to ?into (t : Tensor.t) (shape : int list) =
  let target = Array.of_list shape in
  let into = match into with Some o when o != t -> into | _ -> None in
  let out = Tensor.reuse ?into ~dtype:(Tensor.dtype t) target in
  let src_shape = t.Tensor.shape in
  (match (src_shape, target) with
  | [| r; c |], [| m; n |] when (r = m || r = 1) && (c = n || c = 1) ->
    let s = t.Tensor.data and d = out.Tensor.data in
    for i = 0 to m - 1 do
      let si = if r = 1 then 0 else i * c in
      if c = n then Array.blit s si d (i * n) n
      else for j = i * n to (i * n) + n - 1 do fset d j (s $ si) done
    done
  | _ ->
    let n = Array.length target in
    let idx = Array.make n 0 in
    let src_idx = Array.make n 0 in
    for lin = 0 to Tensor.numel out - 1 do
      let r = ref lin in
      for i = n - 1 downto 0 do
        idx.(i) <- !r mod target.(i);
        r := !r / target.(i)
      done;
      for i = 0 to n - 1 do
        src_idx.(i) <- (if src_shape.(i) = 1 then 0 else idx.(i))
      done;
      Tensor.set_flat out lin (Tensor.get t src_idx)
    done);
  out

(* Fold each contiguous row of [s] (length [klen]) into one element of
   [d], as [Tensor.reduce_slice] does for F32. *)
let reduce_rows_f32 kind (s : float array) (d : float array) ~klen =
  if Array.length s < Array.length d * klen then invalid_arg "Tile.reduce_rows_f32";
  for g = 0 to Array.length d - 1 do
    let off = g * klen in
    d.(g) <-
      (match (kind : Op.reduce_kind) with
      | Red_max ->
        let acc = ref Float.neg_infinity in
        for i = off to off + klen - 1 do acc := Float.max !acc (s $ i) done;
        !acc
      | Red_min ->
        let acc = ref Float.infinity in
        for i = off to off + klen - 1 do acc := Float.min !acc (s $ i) done;
        !acc
      | Red_sum ->
        let acc = ref 0.0 in
        for i = off to off + klen - 1 do acc := !acc +. (s $ i) done;
        !acc)
  done

let reduce_tensor kind axis (t : Tensor.t) =
  let shape = Tensor.shape t in
  let n = Array.length shape in
  let out_shape =
    Array.of_list (List.filteri (fun i _ -> i <> axis) (Array.to_list shape))
  in
  let init, f =
    match (kind : Op.reduce_kind) with
    | Red_max -> (Float.neg_infinity, Float.max)
    | Red_min -> (Float.infinity, Float.min)
    | Red_sum -> (0.0, ( +. ))
  in
  let out = Tensor.create ~dtype:(Tensor.dtype t) out_shape in
  if axis = n - 1 && Tensor.dtype t = Dtype.F32 then
    reduce_rows_f32 kind t.Tensor.data out.Tensor.data ~klen:shape.(axis)
  else if axis = n - 1 then begin
    (* Innermost axis: each output element folds one contiguous span.
       [reduce_slice] requantizes the accumulator through the dtype at
       every step, exactly as folding through the stored output cell
       below does, so both paths are bit-identical. *)
    let klen = shape.(axis) in
    let init = Tensor.quantize (Tensor.dtype t) init in
    for g = 0 to Tensor.numel out - 1 do
      Tensor.set_flat out g
        (Tensor.reduce_slice f ~init t ~off:(g * klen) ~len:klen)
    done
  end
  else begin
    (* Initialize, then fold over the input. *)
    for i = 0 to Tensor.numel out - 1 do
      Tensor.set_flat out i init
    done;
    let out_idx = Array.make (n - 1) 0 in
    Tensor.iteri
      (fun idx v ->
        let j = ref 0 in
        for i = 0 to n - 1 do
          if i <> axis then begin
            out_idx.(!j) <- idx.(i);
            incr j
          end
        done;
        Tensor.set out out_idx (f (Tensor.get out out_idx) v))
      t
  end;
  out

let[@inline] store_q dtype (d : float array) o v =
  match (dtype : Dtype.t) with
  | F32 -> Array.unsafe_set d o v
  | _ -> Array.unsafe_set d o (Tensor.quantize dtype v)

(** [acc + a · b], quantized once per element through [acc]'s dtype.
    [a] is [m×k], [acc] is [m×n], and [b] is [k×n], or [n×k] read as
    its transpose when [trans_b] (a transposed SMEM view, read in
    place). Each element starts from its [acc] cell and adds its
    products with p ascending, exactly as the i-j-p loop does; the
    2×4 output blocks only keep eight sums in registers at once. [into]
    may be [acc] itself, never [a] or [b]. *)
let dot_tiles ?into ?(trans_b = false) (a : Tensor.t) (b : Tensor.t) (acc : Tensor.t) =
  if Tensor.rank a <> 2 || Tensor.rank b <> 2 then invalid_arg "Tile.dot_tiles: rank <> 2";
  let m = Tensor.dim a 0 and k = Tensor.dim a 1 in
  let kb, n =
    if trans_b then (Tensor.dim b 1, Tensor.dim b 0) else (Tensor.dim b 0, Tensor.dim b 1)
  in
  if kb <> k || acc.Tensor.shape <> [| m; n |] then
    invalid_arg "Tile.dot_tiles: shape mismatch";
  let dtype = acc.Tensor.dtype in
  let out = Tensor.reuse ?into ~dtype acc.Tensor.shape in
  let ad = a.Tensor.data and bd = b.Tensor.data and cd = acc.Tensor.data in
  let od = out.Tensor.data in
  (* B's element (p, j) is bd.(p * bp + j * bj). *)
  let bp, bj = if trans_b then (1, k) else (n, 1) in
  let bj2 = 2 * bj and bj3 = 3 * bj in
  let m2 = m - (m land 1) and n4 = n - (n land 3) in
  for ib = 0 to (m2 / 2) - 1 do
    let ra0 = 2 * ib * k in
    for jb = 0 to (n4 / 4) - 1 do
      let j0 = 4 * jb in
      let o0 = (2 * ib * n) + j0 in
      let o1 = o0 + n in
      let s00 = ref (cd $ o0) and s01 = ref (cd $ (o0 + 1))
      and s02 = ref (cd $ (o0 + 2)) and s03 = ref (cd $ (o0 + 3)) in
      let s10 = ref (cd $ o1) and s11 = ref (cd $ (o1 + 1))
      and s12 = ref (cd $ (o1 + 2)) and s13 = ref (cd $ (o1 + 3)) in
      let bo = ref (j0 * bj) in
      (* [ia] walks row i0 of A, [ia + k] row i0 + 1, [!bo] row p of B. *)
      for ia = ra0 to ra0 + k - 1 do
        let a0 = ad $ ia and a1 = ad $ (ia + k) in
        let o = !bo in
        let b0 = bd $ o and b1 = bd $ (o + bj) in
        let b2 = bd $ (o + bj2) and b3 = bd $ (o + bj3) in
        bo := o + bp;
        s00 := !s00 +. (a0 *. b0);
        s01 := !s01 +. (a0 *. b1);
        s02 := !s02 +. (a0 *. b2);
        s03 := !s03 +. (a0 *. b3);
        s10 := !s10 +. (a1 *. b0);
        s11 := !s11 +. (a1 *. b1);
        s12 := !s12 +. (a1 *. b2);
        s13 := !s13 +. (a1 *. b3)
      done;
      store_q dtype od o0 !s00;
      store_q dtype od (o0 + 1) !s01;
      store_q dtype od (o0 + 2) !s02;
      store_q dtype od (o0 + 3) !s03;
      store_q dtype od o1 !s10;
      store_q dtype od (o1 + 1) !s11;
      store_q dtype od (o1 + 2) !s12;
      store_q dtype od (o1 + 3) !s13
    done
  done;
  (* The elements outside the blocks: the last row of an odd [m], and
     the last [n mod 4] columns. *)
  for i = 0 to m - 1 do
    for j = (if i < m2 then n4 else 0) to n - 1 do
      let o = (i * n) + j in
      let s = ref (cd $ o) in
      for p = 0 to k - 1 do
        s := !s +. ((ad $ ((i * k) + p)) *. (bd $ ((p * bp) + (j * bj))))
      done;
      store_q dtype od o !s
    done
  done;
  out

