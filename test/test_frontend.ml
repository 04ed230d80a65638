(* Tests for the textual DSL: lexer, parser, elaborator, and
   end-to-end equivalence of DSL-written kernels with the EDSL
   references — including running a DSL kernel through the whole Tawa
   pipeline and the simulator. *)

open Tawa_tensor
open Tawa_ir
open Tawa_frontend

(* A complete GEMM in the surface syntax (the Fig. 2b program). *)
let gemm_src =
  {|
# C = A * B, one 16x16 tile per program
kernel matmul(a: ptr<f16>, b: ptr<f16>, c: ptr<f16>, M: i32, N: i32, K: i32) {
  pid_m = program_id(0);
  pid_n = program_id(1);
  da = descriptor(a, [M, K], [K, 1]);
  db = descriptor(b, [K, N], [N, 1]);
  dc = descriptor(c, [M, N], [N, 1]);
  offs_m = pid_m * 16;
  offs_n = pid_n * 16;
  acc = zeros([16, 16], f32);
  for k in 0 .. K step 8 with (acc) {
    at = load(da, [offs_m, k], [16, 8]);
    bt = load(db, [k, offs_n], [8, 16]);
    acc = dot(at, bt, acc);
  }
  store(dc, [offs_m, offs_n], cast(acc, f16));
}
|}

let attention_src =
  {|
kernel attention(q: ptr<f16>, k: ptr<f16>, v: ptr<f16>, o: ptr<f16>, L: i32) {
  dq = descriptor(q, [L, 8], [8, 1]);
  dk = descriptor(k, [L, 8], [8, 1]);
  dv = descriptor(v, [L, 8], [8, 1]);
  do_ = descriptor(o, [L, 8], [8, 1]);
  pid = program_id(0);
  offs_m = pid * 16;
  qt = load(dq, [offs_m, 0], [16, 8]);
  acc = zeros([16, 8], f32);
  m_i = full([16], 0.0 - 1000000000.0, f32);
  l_i = zeros([16], f32);
  for n in 0 .. L step 16 with (acc, m_i, l_i) {
    kt = load(dk, [n, 0], [16, 8]);
    s = dot(qt, trans(kt), zeros([16, 16], f32));
    s = s * 0.35355339059;            # 1/sqrt(8)
    m_new = max(m_i, reduce_max(s, 1));
    p = exp(s - broadcast(expand_dims(m_new, 1), [16, 16]));
    alpha = exp(m_i - m_new);
    l_i = alpha * l_i + reduce_sum(p, 1);
    acc = acc * broadcast(expand_dims(alpha, 1), [16, 8]);
    vt = load(dv, [n, 0], [16, 8]);
    acc = dot(cast(p, f16), vt, acc);
    m_i = m_new;
  }
  o_t = acc / broadcast(expand_dims(l_i, 1), [16, 8]);
  store(do_, [offs_m, 0], cast(o_t, f16));
}
|}

(* ------------------------------------------------------------------ *)
(* Lexer                                                              *)
(* ------------------------------------------------------------------ *)

let test_lexer_tokens () =
  let toks = Lexer.tokenize "for k in 0 .. K step 8 { x = y * 2; } # c" in
  let names = List.map (fun (l : Lexer.lexeme) -> Lexer.token_name l.Lexer.tok) toks in
  Alcotest.(check (list string)) "token stream"
    [ "for"; "k"; "in"; "0"; ".."; "K"; "step"; "8"; "{"; "x"; "="; "y"; "*"; "2"; ";";
      "}"; "<eof>" ]
    names

let test_lexer_positions () =
  let toks = Lexer.tokenize "a\n  bb" in
  match toks with
  | [ a; b; _eof ] ->
    Alcotest.(check int) "a line" 1 a.Lexer.pos.Ast.line;
    Alcotest.(check int) "b line" 2 b.Lexer.pos.Ast.line;
    Alcotest.(check int) "b col" 3 b.Lexer.pos.Ast.col
  | _ -> Alcotest.fail "expected three lexemes"

let test_lexer_numbers () =
  let toks = Lexer.tokenize "1 2.5 1e3 0..8" in
  let names = List.map (fun (l : Lexer.lexeme) -> Lexer.token_name l.Lexer.tok) toks in
  (* 1e3 lexes as INT 1 IDENT e3 (no exponent without '.'), which the
     grammar does not use; 0..8 must split into INT DOTDOT INT. *)
  Alcotest.(check bool) "range split" true
    (List.mem ".." names && List.mem "0" names && List.mem "8" names);
  Alcotest.(check bool) "float" true (List.mem "2.5" names)

let test_lexer_rejects_garbage () =
  Alcotest.(check bool) "bad char" true
    (try
       ignore (Lexer.tokenize "a @ b");
       false
     with Lexer.Lex_error _ -> true)

(* ------------------------------------------------------------------ *)
(* Parser                                                             *)
(* ------------------------------------------------------------------ *)

let test_parse_gemm_structure () =
  match Parser.parse gemm_src with
  | [ k ] ->
    Alcotest.(check string) "name" "matmul" k.Ast.kname;
    Alcotest.(check int) "params" 6 (List.length k.Ast.kparams);
    Alcotest.(check bool) "first param is ptr" true
      (match (List.hd k.Ast.kparams).Ast.pty with Ast.Ty_ptr "f16" -> true | _ -> false);
    (* Body: 8 assigns, the for, the store. *)
    let kinds =
      List.map
        (fun (s : Ast.stmt) ->
          match s.Ast.sdesc with
          | Ast.Assign _ -> "assign"
          | Ast.Store _ -> "store"
          | Ast.For _ -> "for"
          | Ast.If _ -> "if")
        k.Ast.kbody
    in
    Alcotest.(check bool) "has for" true (List.mem "for" kinds);
    Alcotest.(check bool) "ends with store" true (List.nth kinds (List.length kinds - 1) = "store")
  | ks -> Alcotest.failf "expected one kernel, got %d" (List.length ks)

let test_parse_precedence () =
  let src = "kernel t(x: i32) { y = 1 + 2 * 3; z = (1 + 2) * 3; }" in
  match Parser.parse src with
  | [ k ] -> (
    match k.Ast.kbody with
    | [ { Ast.sdesc = Ast.Assign (_, e1); _ }; { Ast.sdesc = Ast.Assign (_, e2); _ } ] ->
      (match e1.Ast.desc with
      | Ast.Bin (Ast.Badd, _, { Ast.desc = Ast.Bin (Ast.Bmul, _, _); _ }) -> ()
      | _ -> Alcotest.fail "mul must bind tighter than add");
      (match e2.Ast.desc with
      | Ast.Bin (Ast.Bmul, { Ast.desc = Ast.Bin (Ast.Badd, _, _); _ }, _) -> ()
      | _ -> Alcotest.fail "parens must override precedence")
    | _ -> Alcotest.fail "expected two assigns")
  | _ -> Alcotest.fail "expected one kernel"

let test_parse_for_with_carried () =
  let src = "kernel t(n: i32) { a = 0; b = 0; for i in 0 .. n with (a, b) { a = a + i; b = b + a; } }" in
  match Parser.parse src with
  | [ k ] -> (
    match List.nth k.Ast.kbody 2 with
    | { Ast.sdesc = Ast.For { carried; step; _ }; _ } ->
      Alcotest.(check (list string)) "carried" [ "a"; "b" ] carried;
      Alcotest.(check bool) "default step" true (step = None)
    | _ -> Alcotest.fail "expected for")
  | _ -> Alcotest.fail "expected one kernel"

let test_parse_error_reports_position () =
  Alcotest.(check bool) "missing semi" true
    (try
       ignore (Parser.parse "kernel t(x: i32) { y = 1 }");
       false
     with Parser.Parse_error (_, pos) -> pos.Ast.line = 1)

let test_parse_multiple_kernels () =
  let src = "kernel a(x: i32) { y = x; } kernel b(x: i32) { y = x; }" in
  Alcotest.(check int) "two kernels" 2 (List.length (Parser.parse src))

(* ------------------------------------------------------------------ *)
(* Elaboration                                                        *)
(* ------------------------------------------------------------------ *)

let test_elab_gemm_verifies () =
  match Elaborate.compile_string gemm_src with
  | [ k ] ->
    Alcotest.(check string) "name" "matmul" k.Kernel.name;
    Alcotest.(check bool) "has ops" true (Kernel.count_ops k > 10)
  | _ -> Alcotest.fail "expected one kernel"

let test_elab_unbound_var () =
  Alcotest.(check bool) "unbound" true
    (try
       ignore (Elaborate.compile_string "kernel t(x: i32) { y = z + 1; }");
       false
     with Elaborate.Elab_error (msg, _) -> Astring.String.is_infix ~affix:"unbound" msg)

let test_elab_autosplat () =
  (* `s * 0.5` with s a tile must splat the scalar. *)
  let src =
    "kernel t(p: ptr<f16>, n: i32) { d = descriptor(p, [n, n], [n, 1]);\n\
     x = load(d, [0, 0], [4, 4]); y = x * 0.5; store(d, [0, 0], cast(y, f16)); }"
  in
  match Elaborate.compile_string src with
  | [ k ] ->
    let has_splat = ref false in
    Op.iter_region
      (fun op -> if op.Op.opcode = Op.Splat then has_splat := true)
      k.Kernel.body;
    Alcotest.(check bool) "splat inserted" true !has_splat
  | _ -> Alcotest.fail "expected one kernel"

(* examples/kernels/gemm.tw with [before] replaced by [after] on
   [line]. *)
let gemm_mutant (line, before, after) =
  In_channel.with_open_text (Filename.concat Paths.examples_dir "gemm.tw")
    In_channel.input_all
  |> String.split_on_char '\n'
  |> List.mapi (fun i text ->
         if i + 1 <> line then text
         else
           match Astring.String.cut ~sep:before text with
           | Some (l, r) -> l ^ after ^ r
           | None -> Alcotest.failf "line %d of gemm.tw lacks %S" line before)
  |> String.concat "\n"

(* The mutant must fail elaboration with an [Elab_error] on
   [error_line] whose message contains [affix]. *)
let check_rejected ~error_line ?(affix = "") ((_, _, after) as mutation) =
  match Elaborate.compile_string (gemm_mutant mutation) with
  | _ -> Alcotest.failf "%s: accepted" after
  | exception Elaborate.Elab_error (msg, pos) ->
    Alcotest.(check int) (after ^ ": error line") error_line pos.Ast.line;
    Alcotest.(check bool) (msg ^ " mentions " ^ affix) true
      (Astring.String.is_infix ~affix msg)

(* One-line mutants of examples/kernels/gemm.tw that the builder
   rejects (operand kind, shape, grid axis, store arity and kind), or
   that only the verifier or code generation used to reject (a loop
   bound or step that is not i32, a scalar stored through a 2-D
   descriptor): each must surface as an [Elab_error] on the mutated
   line, not as a builder, verifier, codegen or simulator exception. *)
let test_elab_mutants_positioned () =
  List.iter
    (fun ((line, _, _) as mutation) -> check_rejected ~error_line:line mutation)
    [ (12, "load(da,", "load(a,");
      (14, "dot(at, bt, acc)", "dot(at, at, acc)");
      (3, "program_id(0)", "program_id(32)");
      (16, "store(dc, [offs_m, offs_n],", "store(dc, [offs_m],");
      (16, "store(dc,", "store(c,");
      (11, "0 .. K step 8", "0 .. da step 8");
      (11, "step 8 with", "step 8.0 with");
      (16, "cast(acc, f16)", "cast(K, f16)") ]

(* A float row offset used to run to an [OK] verdict; it is rejected
   at the load that first uses it. *)
let test_elab_float_offset () =
  check_rejected ~error_line:12 ~affix:"load offsets must be i32"
    (8, "pid_m * 16;", "pid_m * 16.0;")

(* An i32 tile stored through the f16 output descriptor used to run to
   a [MISMATCH]. *)
let test_elab_store_dtype () =
  check_rejected ~error_line:16 ~affix:"dtype i32 but the descriptor holds f16"
    (16, "cast(acc, f16)", "cast(acc, i32)")

(* A scalar exp, exp2, log, sqrt, rsqrt or abs used to compile and then
   fail in simulation with no position: code generation has these
   functions for tiles only. *)
let test_elab_scalar_unop () =
  List.iter
    (fun f ->
      check_rejected ~error_line:16 ~affix:(f ^ " expects a tile, got f32")
        (16, "cast(acc, f16)", Printf.sprintf "cast(acc * %s(4.0), f16)" f))
    [ "exp"; "exp2"; "log"; "sqrt"; "rsqrt"; "abs" ]

let run_dsl_gemm kernel ~m ~n ~kk =
  let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| m; kk |] in
  let b = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| kk; n |] in
  let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
  ignore
    (Interp.run_grid ~grid:(m / 16, n / 16, 1) kernel
       [ Interp.RTensor a; Interp.RTensor b; Interp.RTensor c; Interp.RInt m;
         Interp.RInt n; Interp.RInt kk ]);
  (c, Reference.gemm ~out_dtype:Dtype.F16 a b)

let test_dsl_gemm_matches_reference () =
  match Elaborate.compile_string gemm_src with
  | [ k ] ->
    let got, want = run_dsl_gemm k ~m:32 ~n:32 ~kk:24 in
    Alcotest.(check bool) "dsl gemm == reference" true (Tensor.max_rel_diff got want < 1e-3)
  | _ -> Alcotest.fail "expected one kernel"

let test_dsl_attention_matches_reference () =
  match Elaborate.compile_string attention_src with
  | [ kern ] ->
    let l = 32 and d = 8 in
    let q = Tensor.random ~dtype:Dtype.F16 ~seed:11 [| l; d |] in
    let kt = Tensor.random ~dtype:Dtype.F16 ~seed:12 [| l; d |] in
    let v = Tensor.random ~dtype:Dtype.F16 ~seed:13 [| l; d |] in
    let o = Tensor.create ~dtype:Dtype.F16 [| l; d |] in
    ignore
      (Interp.run_grid ~grid:(l / 16, 1, 1) kern
         [ Interp.RTensor q; Interp.RTensor kt; Interp.RTensor v; Interp.RTensor o;
           Interp.RInt l ]);
    let want = Reference.attention ~out_dtype:Dtype.F16 ~q ~k:kt ~v () in
    Alcotest.(check bool) "dsl attention == reference" true
      (Tensor.max_rel_diff o want < 2e-2)
  | _ -> Alcotest.fail "expected one kernel"

let test_dsl_kernel_through_full_pipeline () =
  (* DSL source -> Tawa warp specialization -> machine code -> simulator
     must still agree with the reference. *)
  match Elaborate.compile_string gemm_src with
  | [ k ] ->
    let compiled =
      Tawa_core.Flow.compile
        ~options:
          { Tawa_core.Flow.default_options with aref_depth = 2; mma_depth = 2; num_consumer_wgs = 1;
            persistent = false; use_coarse = false }
        k
    in
    Alcotest.(check bool) "warp specialized" true compiled.Tawa_core.Flow.warp_specialized;
    let m = 32 and n = 32 and kk = 24 in
    let a = Tensor.random ~dtype:Dtype.F16 ~seed:1 [| m; kk |] in
    let b = Tensor.random ~dtype:Dtype.F16 ~seed:2 [| kk; n |] in
    let c = Tensor.create ~dtype:Dtype.F16 [| m; n |] in
    ignore
      (Tawa_gpusim.Launch.run_grid_functional ~cfg:Tawa_gpusim.Config.functional_test
         compiled.Tawa_core.Flow.program
         ~params:
           [ Tawa_gpusim.Sim.Rtensor a; Tawa_gpusim.Sim.Rtensor b;
             Tawa_gpusim.Sim.Rtensor c; Tawa_gpusim.Sim.Rint m; Tawa_gpusim.Sim.Rint n;
             Tawa_gpusim.Sim.Rint kk ]
         ~grid:(m / 16, n / 16, 1));
    let want = Reference.gemm ~out_dtype:Dtype.F16 a b in
    Alcotest.(check bool) "dsl -> ws -> sim == reference" true
      (Tensor.max_rel_diff c want < 1e-3)
  | _ -> Alcotest.fail "expected one kernel"

let test_if_statement_carried () =
  let src =
    "kernel t(n: i32) { x = 1; if n > 10 with (x) { x = x + 100; } else { x = x + 1; }\n\
     y = x * 2; }"
  in
  match Elaborate.compile_string src with
  | [ k ] ->
    let has_if = ref false in
    Op.iter_region (fun op -> if op.Op.opcode = Op.If then has_if := true) k.Kernel.body;
    Alcotest.(check bool) "if emitted" true !has_if
  | _ -> Alcotest.fail "expected one kernel"

let prop_roundtrip_arith =
  (* Random arithmetic expressions over scalars elaborate and verify. *)
  QCheck.Test.make ~name:"random scalar expressions elaborate" ~count:100
    QCheck.(pair (int_range 1 100) (int_range 1 100))
    (fun (a, c) ->
      let src =
        Printf.sprintf "kernel t(x: i32) { y = (x + %d) * %d - x / 2 %% 7; z = y < x; }" a c
      in
      match Elaborate.compile_string src with
      | [ _ ] -> true
      | _ -> false)

let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests)

let suites =
  [
    ( "frontend.lexer",
      [
        Alcotest.test_case "tokens" `Quick test_lexer_tokens;
        Alcotest.test_case "positions" `Quick test_lexer_positions;
        Alcotest.test_case "numbers and ranges" `Quick test_lexer_numbers;
        Alcotest.test_case "rejects garbage" `Quick test_lexer_rejects_garbage;
      ] );
    ( "frontend.parser",
      [
        Alcotest.test_case "gemm structure" `Quick test_parse_gemm_structure;
        Alcotest.test_case "precedence" `Quick test_parse_precedence;
        Alcotest.test_case "for with carried" `Quick test_parse_for_with_carried;
        Alcotest.test_case "error position" `Quick test_parse_error_reports_position;
        Alcotest.test_case "multiple kernels" `Quick test_parse_multiple_kernels;
      ] );
    ( "frontend.elaborate",
      [
        Alcotest.test_case "gemm verifies" `Quick test_elab_gemm_verifies;
        Alcotest.test_case "unbound variable" `Quick test_elab_unbound_var;
        Alcotest.test_case "auto-splat" `Quick test_elab_autosplat;
        Alcotest.test_case "if with carried" `Quick test_if_statement_carried;
        Alcotest.test_case "gemm == reference" `Quick test_dsl_gemm_matches_reference;
        Alcotest.test_case "attention == reference" `Quick test_dsl_attention_matches_reference;
        Alcotest.test_case "dsl through full pipeline" `Quick test_dsl_kernel_through_full_pipeline;
        Alcotest.test_case "builder rejections are positioned" `Quick
          test_elab_mutants_positioned;
        Alcotest.test_case "float offset rejected" `Quick test_elab_float_offset;
        Alcotest.test_case "store dtype mismatch rejected" `Quick test_elab_store_dtype;
        Alcotest.test_case "scalar math call rejected" `Quick test_elab_scalar_unop;
      ] );
    qsuite "frontend.props" [ prop_roundtrip_arith ];
  ]
