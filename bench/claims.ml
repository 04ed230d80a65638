(* The paper's claims as assertions over the figure tables that
   [main.exe] prints (the figures golden's output):

     claims.exe FIGURES

   Each claim checks the shape of a result — an ordering, a hole, a
   band — not its digits, so a change that moves the numbers but keeps
   what the paper says passes, and one that breaks a claim fails even
   when its golden is promoted. Prints one line per claim and exits 1
   when any fails. *)

(* The lines of the section whose title starts with [prefix], up to the
   next section. *)
let section lines prefix =
  let title l =
    let n = String.length l in
    if n > 8 && String.sub l 0 4 = "=== " && String.sub l (n - 4) 4 = " ===" then
      Some (String.sub l 4 (n - 8))
    else None
  in
  let rec skip = function
    | [] -> None
    | l :: rest -> (
      match title l with
      | Some t when String.starts_with ~prefix t -> Some (take [] rest)
      | _ -> skip rest)
  and take acc = function
    | l :: rest when title l = None -> take (l :: acc) rest
    | _ -> List.rev acc
  in
  skip lines

(* The table of a section: its header cells and its rows' cells. The
   rule under the header crosses columns with '+', so it is not a row. *)
let table lines =
  match List.filter (fun l -> String.contains l '|') lines with
  | header :: rows ->
    let cells l = List.map String.trim (String.split_on_char '|' l) in
    Some (cells header, List.map cells rows)
  | _ -> None

exception Claim of string

let fail fmt = Printf.ksprintf (fun s -> raise (Claim s)) fmt

let number what s =
  match float_of_string_opt s with Some v -> v | None -> fail "%s: %S is not a number" what s

let table_of lines prefix =
  match Option.bind (section lines prefix) table with
  | Some t -> t
  | None -> fail "no table under %S" prefix

let column (header, _) name =
  let rec find i = function
    | [] -> fail "no column %S" name
    | h :: _ when h = name -> i
    | _ :: rest -> find (i + 1) rest
  in
  find 0 header

(* Fig. 8: Tawa ahead of Triton on every row of both precisions. *)
let tawa_beats_triton lines =
  List.iter
    (fun prefix ->
      let ((_, rows) as t) = table_of lines prefix in
      let tawa = column t "Tawa" and triton = column t "Triton" in
      List.iter
        (fun row ->
          let at i = number prefix (List.nth row i) in
          if not (at tawa > at triton) then
            fail "%s K=%s: Tawa %s <= Triton %s" prefix (List.hd row) (List.nth row tawa)
              (List.nth row triton))
        rows)
    [ "Fig. 8a"; "Fig. 8b" ]

(* Fig. 8a: the average Tawa/cuBLAS speedup stays in the paper's band
   (1.01x reported). *)
let fp16_cublas_band lines =
  let line =
    match
      List.find_opt
        (String.starts_with ~prefix:"Average Tawa speedup:")
        (Option.value ~default:[] (section lines "Fig. 8a"))
    with
    | Some l -> l
    | None -> fail "no Fig. 8a average line"
  in
  match Scanf.sscanf_opt line "Average Tawa speedup: cuBLAS %fx" Fun.id with
  | Some v when v >= 0.99 && v <= 1.06 -> ()
  | Some v -> fail "Tawa/cuBLAS %.2fx outside 0.99-1.06" v
  | None -> fail "no cuBLAS average in %S" line

(* Fig. 11: a cell is infeasible exactly when P > D, in both panels. *)
let holes_at_p_gt_d lines =
  List.iter
    (fun prefix ->
      let header, rows = table_of lines prefix in
      let label fmt s =
        match Scanf.sscanf_opt s fmt Fun.id with
        | Some v -> v
        | None -> fail "%s: bad label %S" prefix s
      in
      let ps = List.map (label "P=%d") (List.tl header) in
      if rows = [] || ps = [] then fail "%s: empty grid" prefix;
      List.iter
        (fun row ->
          let d = label "D=%d" (List.hd row) in
          if List.length row <> List.length header then fail "%s: ragged row D=%d" prefix d;
          List.iter2
            (fun p cell ->
              match (cell = "infeasible", p > d) with
              | true, false -> fail "%s: D=%d P=%d is a hole" prefix d p
              | false, true -> fail "%s: D=%d P=%d is not a hole" prefix d p
              | false, false -> ignore (number prefix cell)
              | true, true -> ())
            ps (List.tl row))
        rows)
    [ "Fig. 11 (left)"; "Fig. 11 (right)" ]

(* Fig. 12: each ablation step against the one before it. *)
let steps ~strict prefix lines =
  let _, rows = table_of lines prefix in
  let value row = number prefix (List.nth row 1) in
  ignore
    (List.fold_left
       (fun prev row ->
         (match prev with
         | Some p
           when (strict && not (value row > value p)) || ((not strict) && value row < value p) ->
           fail "%s (%s) after %s (%s)" (List.hd row) (List.nth row 1) (List.hd p)
             (List.nth p 1)
         | _ -> ());
         Some row)
       None rows)

(* The row of a table whose first cell is [key]. *)
let row_at prefix (_, rows) key =
  match List.find_opt (fun row -> List.hd row = key) rows with
  | Some row -> row
  | None -> fail "%s: no row %s" prefix key

(* Fig. 8a: TileLang trails Tawa at the smallest K and catches up
   (at or above) at the largest. *)
let tilelang_crossover lines =
  let prefix = "Fig. 8a" in
  let t = table_of lines prefix in
  let tawa = column t "Tawa" and tl = column t "TileLang" in
  let at key i = number prefix (List.nth (row_at prefix t key) i) in
  if not (at "256" tl < at "256" tawa) then
    fail "K=256: TileLang %.1f >= Tawa %.1f" (at "256" tl) (at "256" tawa);
  if not (at "16384" tl >= at "16384" tawa) then
    fail "K=16384: TileLang %.1f < Tawa %.1f" (at "16384" tl) (at "16384" tawa)

(* Fig. 10c/10d: TileLang and ThunderKittens have no FP8 attention. *)
let fp8_attention_fails lines =
  List.iter
    (fun prefix ->
      let ((_, rows) as t) = table_of lines prefix in
      List.iter
        (fun fw ->
          let i = column t fw in
          List.iter
            (fun row ->
              if List.nth row i <> "fail" then
                fail "%s L=%s: %s %s is not fail" prefix (List.hd row) fw (List.nth row i))
            rows)
        [ "TileLang"; "ThunderKittens" ])
    [ "Fig. 10c"; "Fig. 10d" ]

(* Fig. 10: Tawa reaches 85-96% of FA3 at L=16384 in every panel (the
   paper reports up to 96%). *)
let fa3_band lines =
  List.iter
    (fun prefix ->
      let t = table_of lines prefix in
      let row = row_at prefix t "16384" in
      let at name = number prefix (List.nth row (column t name)) in
      let r = at "Tawa" /. at "FA3" in
      if r < 0.85 || r > 0.96 then fail "%s L=16384: Tawa/FA3 %.3f outside 0.85-0.96" prefix r)
    [ "Fig. 10a"; "Fig. 10b"; "Fig. 10c"; "Fig. 10d" ]

let claims =
  [ ("Fig. 8: Tawa beats Triton on every row", tawa_beats_triton);
    ("Fig. 8a: Tawa/cuBLAS average within 0.99-1.06", fp16_cublas_band);
    ("Fig. 8a: TileLang below Tawa at K=256, at or above at K=16384", tilelang_crossover);
    ("Fig. 10c/d: TileLang and ThunderKittens fail on every FP8 row", fp8_attention_fails);
    ("Fig. 10: Tawa/FA3 at L=16384 within 0.85-0.96", fa3_band);
    ("Fig. 11: holes exactly at P > D", holes_at_p_gt_d);
    ("Fig. 12: GEMM steps rise strictly", steps ~strict:true "Fig. 12 (left)");
    ("Fig. 12: MHA steps never fall", steps ~strict:false "Fig. 12 (right)") ]

let () =
  let path =
    match Sys.argv with
    | [| _; path |] -> path
    | _ ->
      prerr_endline "usage: claims.exe FIGURES";
      exit 2
  in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let failed =
    List.fold_left
      (fun failed (name, check) ->
        match check lines with
        | () ->
          Printf.printf "ok   %s\n" name;
          failed
        | exception e ->
          let why = match e with Claim why -> why | e -> Printexc.to_string e in
          Printf.printf "FAIL %s: %s\n" name why;
          true)
      false claims
  in
  if failed then exit 1
