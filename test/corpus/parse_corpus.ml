open Asim

let modular =
  "#m\n= 16\none q0* q1* .\nA one 1 0 1\n\
   B tflip en .\nA n 10 q en\nA carry 8 q en\nM q 0 n 1 1\nE\n\
   U b0 tflip one\nU b1 tflip b0carry\n.\n"

let nested_modules =
  "#m\nstart pairq0q .\nA start 1 0 1\n\
   B cell en .\nA n 10 q en\nM q 0 n 1 1\nE\n\
   B pair en .\nU q0 cell en\nE\n\
   U pair pair start\n.\n"

let macros_in_modules =
  "#m\n~fn 10\n~en clk\nclk q0q .\nA clk 1 0 1\n\
   B cell ~en .\nA n ~fn q ~en\nM q 0 n 1 1\nE\nU q0 cell ~en\n.\n"

let macro_memory =
  "#mm\n~w 3\n-cells 4\n~op 1\n= 12\nm* a .\n\
   A a 4 m.0.~w 1\nM m 0 a ~op -~cells 1 2 3 ~w.\n"

let comments =
  "#c\n{ leading }\n~fn 4 { a macro }\n= 8\ncount* inc . {decls}\n\
   A inc ~fn count 1 {alu}{two}\nM count 0 inc 1 1\n.{end}\n"

(* Errors found late in the text that the original pipeline reported
   first: the lexer and the macro expander saw the whole text before the
   parser saw any of it. *)
let late_lex_error = "#c\nx .\nQ x 1 2 3\n.\n{never closed\n"
let late_macro_error = "#c\n~a 1\nx .\nQ x ~a 2 3\n.\n~nope\n"
let macro_then_lex_error = "#c\n~a ~b\nx .\n{\n"
let trailing_macro_error = "#c\nx .\nA x 1 0 0\n.\nfoo ~u\n"

(* A macro body that is a component letter ends a selector. *)
let macro_bodies = "#c\n~l A\n~v 5\nx y .\nS x 1 2 3 ~l y 1 0 ~v\nM z 0 0 0 -2 ~v 1\n.\n"

let sources =
  Specs.all
  @ [
      ("modular", modular);
      ("nested-modules", nested_modules);
      ("macros-in-modules", macros_in_modules);
      ("macro-memory", macro_memory);
      ("comments", comments);
      ("late-lex-error", late_lex_error);
      ("late-macro-error", late_macro_error);
      ("macro-then-lex-error", macro_then_lex_error);
      ("trailing-macro-error", trailing_macro_error);
      ("macro-bodies", macro_bodies);
    ]

(* Whitespace-delimited token spans [(start, stop)], by byte offset.  This
   is deliberately not the real lexer: the mutations must not move when the
   lexer changes. *)
let token_spans text =
  let n = String.length text in
  let is_space c = c = ' ' || c = '\t' || c = '\r' || c = '\n' in
  let rec go i acc =
    if i >= n then Array.of_list (List.rev acc)
    else if is_space text.[i] then go (i + 1) acc
    else
      let j = ref i in
      while !j < n && not (is_space text.[!j]) do
        incr j
      done;
      go !j ((i, !j) :: acc)
  in
  go 0 []

let sub text (a, b) = String.sub text a (b - a)

let splice text (a, b) replacement =
  String.sub text 0 a ^ replacement ^ String.sub text b (String.length text - b)

let truncations = 11
let per_kind = 8
let flips = 10

let mutants ~seed text =
  let st = Random.State.make [| seed; String.length text |] in
  let n = String.length text in
  let spans = token_spans text in
  let m = Array.length spans in
  let token () = Random.State.int st m in
  let out = ref [] in
  let add descr t = out := (descr, t) :: !out in
  for k = 1 to truncations do
    let at = n * k / (truncations + 1) in
    add (Printf.sprintf "trunc@%d" at) (String.sub text 0 at)
  done;
  for _ = 1 to per_kind do
    let i = token () in
    add (Printf.sprintf "del#%d" i) (splice text spans.(i) "")
  done;
  for _ = 1 to per_kind do
    let i = token () in
    let t = sub text spans.(i) in
    add (Printf.sprintf "dup#%d" i) (splice text spans.(i) (t ^ " " ^ t))
  done;
  for _ = 1 to per_kind do
    let i = token () and j = token () in
    let i, j = (min i j, max i j) in
    let mutated =
      if i = j then text
      else
        (* replace the later span first so the earlier offsets hold *)
        splice (splice text spans.(j) (sub text spans.(i))) spans.(i) (sub text spans.(j))
    in
    add (Printf.sprintf "swap#%d,#%d" i j) mutated
  done;
  for _ = 1 to flips do
    let at = Random.State.int st n and bit = Random.State.int st 7 in
    let b = Bytes.of_string text in
    Bytes.set b at (Char.chr (Char.code text.[at] lxor (1 lsl bit)));
    add (Printf.sprintf "flip@%d^%d" at bit) (Bytes.to_string b)
  done;
  List.rev !out

let outcome text =
  let error e = "error " ^ String.escaped (Asim_core.Error.to_string e) in
  match Parser.parse_string text with
  | exception Asim_core.Error.Error e -> error e
  | spec ->
      let digest s = Digest.to_hex (Digest.string s) in
      let analysis =
        match Analysis.analyze spec with
        | exception Asim_core.Error.Error e -> error e
        | a ->
            let names ids = String.concat " " (Analysis.names a ids) in
            "ok "
            ^ digest
                (String.concat "\n"
                   (names a.Analysis.order :: names a.memories
                   :: List.map Asim_core.Error.warning_to_string a.warnings))
      in
      Printf.sprintf "ok %s analyze %s" (digest (Pretty.spec spec)) analysis

let render () =
  let buf = Buffer.create 65536 in
  List.iteri
    (fun seed (name, text) ->
      let line descr t = Printf.bprintf buf "%s/%s %s\n" name descr (outcome t) in
      line "original" text;
      List.iter (fun (descr, t) -> line descr t) (mutants ~seed text))
    sources;
  Buffer.contents buf
