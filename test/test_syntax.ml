(* Lexer, macro expansion, and parser tests (Appendix A/B language). *)

open Asim_core
module Lexer = Asim_syntax.Lexer
module Macro = Asim_syntax.Macro
module Parser = Asim_syntax.Parser

let texts tokens = List.map (fun t -> t.Lexer.text) tokens

(* --- lexer ---------------------------------------------------------------- *)

let test_comment_line () =
  let comment, tokens = Lexer.tokenize "# hello world\na b .\n" in
  Alcotest.(check string) "comment" " hello world" comment;
  Alcotest.(check (list string)) "tokens" [ "a"; "b"; "." ] (texts tokens)

let test_comment_required () =
  match Lexer.tokenize "a b ." with
  | exception Error.Error { phase = Error.Lexing; _ } -> ()
  | _ -> Alcotest.fail "expected 'Comment required.'"

let test_braces_are_whitespace () =
  let _, tokens = Lexer.tokenize "#c\nfoo{a comment}bar {x} baz\n" in
  Alcotest.(check (list string)) "tokens" [ "foo"; "bar"; "baz" ] (texts tokens)

let test_unterminated_comment () =
  match Lexer.tokenize "#c\nfoo {never closed" with
  | exception Error.Error { phase = Error.Lexing; _ } -> ()
  | _ -> Alcotest.fail "expected unterminated-comment error"

let test_trailing_period_splits () =
  let _, tokens = Lexer.tokenize "#c\n4096.\n" in
  Alcotest.(check (list string)) "split" [ "4096"; "." ] (texts tokens);
  let _, tokens = Lexer.tokenize "#c\n.\n" in
  Alcotest.(check (list string)) "lone period intact" [ "." ] (texts tokens);
  (* An interior period stays put: only the trailing one splits. *)
  let _, tokens = Lexer.tokenize "#c\nmem.3.4\n" in
  Alcotest.(check (list string)) "interior" [ "mem.3.4" ] (texts tokens)

let test_positions () =
  let _, tokens = Lexer.tokenize "#c\n ab\n  cd\n" in
  match tokens with
  | [ a; b ] ->
      Alcotest.(check int) "a line" 2 a.Lexer.pos.Error.line;
      Alcotest.(check int) "a col" 2 a.Lexer.pos.Error.column;
      Alcotest.(check int) "b line" 3 b.Lexer.pos.Error.line;
      Alcotest.(check int) "b col" 3 b.Lexer.pos.Error.column
  | _ -> Alcotest.fail "token count"

(* --- macros ---------------------------------------------------------------- *)

let expand source =
  let _, tokens = Lexer.tokenize source in
  let table, rest = Macro.consume tokens in
  texts (Macro.expand table rest)

let test_macro_basic () =
  Alcotest.(check (list string))
    "substitution" [ "A"; "x"; "4"; "left"; "right" ]
    (expand "#c\n~fn 4\nA x ~fn left right\n")

let test_macro_inside_token () =
  Alcotest.(check (list string))
    "mid-token" [ "rom.8,parm.5" ]
    (expand "#c\n~w 8\n~d 5\nrom.~w,parm.~d\n")

let test_macro_uses_earlier_macro () =
  (* Macro names extend over letters and digits, so a delimiter (here [.])
     separates the reference from the rest of the body. *)
  Alcotest.(check (list string))
    "nested" [ "foo"; "a.1" ]
    (expand "#c\n~x a\n~y ~x.1\nfoo ~y\n")

let test_macro_dash_marker () =
  Alcotest.(check (list string))
    "dash definition" [ "foo"; "5" ]
    (expand "#c\n-d 5\nfoo ~d\n")

let test_macro_undefined () =
  match expand "#c\nfoo ~nope\n" with
  | exception Error.Error { phase = Error.Parsing; _ } -> ()
  | _ -> Alcotest.fail "expected undefined-macro error"

let test_macro_duplicate () =
  match expand "#c\n~x 1\n~x 2\nfoo\n" with
  | exception Error.Error { phase = Error.Parsing; _ } -> ()
  | _ -> Alcotest.fail "expected duplicate-macro error"

(* --- parser ----------------------------------------------------------------- *)

let counter = "# counter\n= 8\ncount* inc .\nA inc 4 count 1\nM count 0 inc 1 1\n.\n"

let test_parse_counter () =
  let spec = Parser.parse_string counter in
  Alcotest.(check string) "comment" " counter" spec.Spec.comment;
  Alcotest.(check (option int)) "cycles" (Some 8) spec.Spec.cycles;
  Alcotest.(check (list string)) "traced" [ "count" ] (Spec.traced_names spec);
  Alcotest.(check int) "components" 2 (List.length spec.Spec.components);
  match (Spec.find_exn spec "inc").kind with
  | Component.Alu { fn; _ } ->
      Alcotest.(check (option int)) "fn" (Some 4) (Expr.const_value fn)
  | _ -> Alcotest.fail "inc should be an ALU"

let test_parse_selector_termination () =
  let spec =
    Parser.parse_string
      "#c\ns t x .\nS s x 1 2 3\nA x 1 0 1\nM t 0 s 1 1\n.\n"
  in
  match (Spec.find_exn spec "s").kind with
  | Component.Selector { cases; _ } -> Alcotest.(check int) "cases" 3 (Array.length cases)
  | _ -> Alcotest.fail "selector expected"

let test_parse_memory_init () =
  let spec = Parser.parse_string "#c\nm .\nM m 0 0 0 -4 12 34 56 78\n.\n" in
  match (Spec.find_exn spec "m").kind with
  | Component.Memory { cells; init = Some init; _ } ->
      Alcotest.(check int) "cells" 4 cells;
      Alcotest.(check (list int)) "values" [ 12; 34; 56; 78 ] (Array.to_list init)
  | _ -> Alcotest.fail "memory with init expected"

let parse_error source =
  match Parser.parse_string source with
  | exception Error.Error { phase = Error.Parsing | Error.Analysis; _ } -> ()
  | _ -> Alcotest.failf "expected a parse error for %S" source

let test_parse_errors () =
  parse_error "#c\nx .\nQ x 1 2 3\n.\n";
  (* component expected *)
  parse_error "#c\nx .\nA x 1 2\n.\n";
  (* missing operand: '.' consumed as expr -> malformed *)
  parse_error "#c\nx .\nM x 0 0 0 -2 7\n.\n";
  (* not enough initializers *)
  parse_error "#c\n1bad .\nA 1bad 1 0 0\n.\n";
  (* invalid name *)
  parse_error "#c\nx .\nA x 1 0 0\n. trailing\n";
  (* trailing tokens *)
  parse_error "#c\nx .\nS x 1\n.\n" (* selector with no values *)

let test_parse_duplicate_component () =
  parse_error "#c\nx .\nA x 1 0 0\nA x 2 0 0\n.\n"

(* Round-trip: pretty-printing a parsed spec and re-parsing it yields the
   same structure. *)
let test_roundtrip () =
  List.iter
    (fun (name, source) ->
      let spec = Parser.parse_string source in
      let printed = Asim_core.Pretty.spec spec in
      let again = Parser.parse_string printed in
      if spec <> again then Alcotest.failf "round-trip mismatch for %s" name)
    Asim.Specs.all

(* --- modules (the paragraph-5.4 extension) ------------------------------ *)

let modular_source =
  "#m\n= 16\none q0* q1* .\nA one 1 0 1\n\
   B tflip en .\nA n 10 q en\nA carry 8 q en\nM q 0 n 1 1\nE\n\
   U b0 tflip one\nU b1 tflip b0carry\n.\n"

let test_module_expansion () =
  let spec = Parser.parse_string modular_source in
  let names = List.map (fun (c : Component.t) -> c.name) spec.Spec.components in
  Alcotest.(check (list string))
    "flattened components"
    [ "one"; "b0n"; "b0carry"; "b0q"; "b1n"; "b1carry"; "b1q" ]
    names;
  (* expanded components are declared implicitly *)
  Alcotest.(check bool) "b0q declared" true
    (List.exists (fun (d : Spec.decl) -> d.Spec.name = "b0q") spec.Spec.decls)

let test_module_behaviour_matches_flat () =
  (* The modular divider must behave exactly like the hand-flattened one. *)
  let run source names =
    let analysis = Asim.load_string source in
    let machine = Asim.machine ~config:Asim.Machine.quiet_config analysis in
    List.init 16 (fun _ ->
        Asim.Machine.run machine ~cycles:1;
        List.map machine.Asim.Machine.read names)
  in
  let flat = run Asim.Specs.divider [ "d0"; "d1"; "d2" ] in
  let modular = run Asim.Specs.divider_modular [ "d0q"; "d1q"; "d2q" ] in
  Alcotest.(check bool) "sequences equal" true (flat = modular)

let test_module_nested_instantiation () =
  (* A module may instantiate a previously defined module. *)
  let source =
    "#m\nstart pairq0q .\nA start 1 0 1\n\
     B cell en .\nA n 10 q en\nM q 0 n 1 1\nE\n\
     B pair en .\nU q0 cell en\nE\n\
     U pair pair start\n.\n"
  in
  let spec = Parser.parse_string source in
  Alcotest.(check bool) "deep name exists" true (Spec.find spec "pairq0q" <> None)

let test_macros_inside_modules () =
  (* macros expand before module parsing, so bodies may use them freely *)
  let source =
    "#m\n~fn 10\n~en clk\nclk q0q .\nA clk 1 0 1\n\
     B cell ~en .\nA n ~fn q ~en\nM q 0 n 1 1\nE\nU q0 cell ~en\n.\n"
  in
  let spec = Parser.parse_string source in
  Alcotest.(check bool) "expanded internal exists" true (Spec.find spec "q0q" <> None);
  match (Spec.find_exn spec "q0n").kind with
  | Component.Alu { fn; _ } ->
      Alcotest.(check (option int)) "macro function" (Some 10) (Expr.const_value fn)
  | _ -> Alcotest.fail "alu expected"

let test_fmt_flattens_modules () =
  let spec = Parser.parse_string modular_source in
  let printed = Asim_core.Pretty.spec spec in
  (* the canonical form contains no module constructs, only expansions *)
  let contains needle =
    let nl = String.length needle and hl = String.length printed in
    let rec go i = i + nl <= hl && (String.sub printed i nl = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "no B form" false (contains "\nB ");
  Alcotest.(check bool) "no U form" false (contains "\nU ");
  Alcotest.(check bool) "expanded component present" true (contains "M b0q 0 b0n 1 1")

let test_module_errors () =
  (* arity: U i m with no actual -> '.' consumed as name -> error *)
  parse_error "#m\nx .\nB m p .\nA a 1 0 1\nE\nU i m\n.\n";
  parse_error "#m\nx .\nU i ghost x\n.\n";
  (* unknown module *)
  parse_error "#m\nx .\nB m p .\nA a 1 0 ghost\nE\n.\n";
  (* free name that is neither port nor internal *)
  parse_error "#m\nx .\nB m p .\nB n q .\nE\nE\n.\n";
  (* nested definition *)
  parse_error "#m\nx .\nE\n.\n";
  (* E without B *)
  parse_error "#m\nx .\nB m p .\nA a 1 0 1\nE\nB m p .\nE\n.\n";
  (* duplicate module *)
  parse_error "#m\nx .\nB m p .\nA p 1 0 1\nE\n.\n"
(* port shadows internal *)

let test_parse_file () =
  let path = Filename.temp_file "asim-test" ".asim" in
  let oc = open_out path in
  output_string oc counter;
  close_out oc;
  let spec = Parser.parse_file path in
  Sys.remove path;
  Alcotest.(check int) "components" 2 (List.length spec.Spec.components)

(* --- hostile input ------------------------------------------------------- *)

(* A memory whose initial-value count is far beyond what the text holds
   fails like a short list does, with no allocation sized by the count. *)
let test_hostile_memory_init () =
  (match Parser.parse_string "#c\nm .\nM m 0 0 0 -100000000000000 5\n" with
  | exception Error.Error { phase = Error.Parsing; position = Some p; message; _ } ->
      Alcotest.(check string) "message" "unexpected end of input, expected memory initial value"
        message;
      Alcotest.(check (pair int int)) "at the last value" (3, 28) (p.Error.line, p.Error.column)
  | _ -> Alcotest.fail "expected a positioned parse error");
  parse_error "#c\nm .\nM m 0 0 0 -100000000000000 5\n.\n"

(* [n] macros, each used once, by one ALU apiece. *)
let macro_spec n =
  let b = Buffer.create (n * 24) in
  Buffer.add_string b "#macros\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "~m%d %d\n" i (i land 15)
  done;
  for i = 0 to n - 1 do
    Printf.bprintf b "c%d " i
  done;
  Buffer.add_string b ".\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "A c%d ~m%d 0 0\n" i i
  done;
  Buffer.add_string b ".\n";
  Buffer.contents b

(* [n] instances of a two-component module, every expanded register
   declared by the user. *)
let instance_spec n =
  let b = Buffer.create (n * 32) in
  Buffer.add_string b "#instances\nclk ";
  for i = 0 to n - 1 do
    Printf.bprintf b "i%dq " i
  done;
  Buffer.add_string b ".\nA clk 1 0 1\nB cell en .\nA n 10 q en\nM q 0 n 1 1\nE\n";
  for i = 0 to n - 1 do
    Printf.bprintf b "U i%d cell clk\n" i
  done;
  Buffer.add_string b ".\n";
  Buffer.contents b

let test_macros_linear () = Linear.check "macros" macro_spec Parser.parse_string
let test_instances_linear () = Linear.check "module instances" instance_spec Parser.parse_string

(* --- frozen behaviour on damaged input ------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

(* Every mutant's outcome must match the golden byte for byte, and nothing
   but [Error.Error] may escape the parser or the analysis
   ([Parse_corpus.outcome] catches nothing else). *)
let test_corpus_golden () =
  let golden = read_file (Filename.concat "goldens" "parse_errors.golden") in
  let replayed = Asim_parse_corpus.Parse_corpus.render () in
  let la = String.split_on_char '\n' replayed and lb = String.split_on_char '\n' golden in
  Alcotest.(check int) "line count" (List.length lb) (List.length la);
  List.iter2
    (fun got want ->
      if got <> want then Alcotest.failf "outcome differs:\n  now:    %s\n  golden: %s" got want)
    la lb

let () =
  Alcotest.run "syntax"
    [
      ( "lexer",
        [
          Alcotest.test_case "comment line" `Quick test_comment_line;
          Alcotest.test_case "comment required" `Quick test_comment_required;
          Alcotest.test_case "braces are whitespace" `Quick test_braces_are_whitespace;
          Alcotest.test_case "unterminated comment" `Quick test_unterminated_comment;
          Alcotest.test_case "trailing period" `Quick test_trailing_period_splits;
          Alcotest.test_case "positions" `Quick test_positions;
        ] );
      ( "macros",
        [
          Alcotest.test_case "basic" `Quick test_macro_basic;
          Alcotest.test_case "inside token" `Quick test_macro_inside_token;
          Alcotest.test_case "nested" `Quick test_macro_uses_earlier_macro;
          Alcotest.test_case "dash marker" `Quick test_macro_dash_marker;
          Alcotest.test_case "undefined" `Quick test_macro_undefined;
          Alcotest.test_case "duplicate" `Quick test_macro_duplicate;
        ] );
      ( "parser",
        [
          Alcotest.test_case "counter" `Quick test_parse_counter;
          Alcotest.test_case "selector termination" `Quick test_parse_selector_termination;
          Alcotest.test_case "memory init" `Quick test_parse_memory_init;
          Alcotest.test_case "errors" `Quick test_parse_errors;
          Alcotest.test_case "duplicate component" `Quick test_parse_duplicate_component;
          Alcotest.test_case "round-trip" `Quick test_roundtrip;
          Alcotest.test_case "parse_file" `Quick test_parse_file;
        ] );
      ( "modules",
        [
          Alcotest.test_case "expansion" `Quick test_module_expansion;
          Alcotest.test_case "behaviour matches flat" `Quick
            test_module_behaviour_matches_flat;
          Alcotest.test_case "nested instantiation" `Quick
            test_module_nested_instantiation;
          Alcotest.test_case "macros inside modules" `Quick test_macros_inside_modules;
          Alcotest.test_case "fmt flattens" `Quick test_fmt_flattens_modules;
          Alcotest.test_case "errors" `Quick test_module_errors;
        ] );
      ( "hostile input",
        [
          Alcotest.test_case "memory init beyond the text" `Quick test_hostile_memory_init;
          Alcotest.test_case "macros linear in count" `Quick test_macros_linear;
          Alcotest.test_case "instances linear in count" `Quick test_instances_linear;
        ] );
      ("corpus", [ Alcotest.test_case "damaged input golden" `Quick test_corpus_golden ]);
    ]
