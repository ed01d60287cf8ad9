(* Cross-cutting unit tests: pretty-printer shapes, error rendering,
   dependency reporting, macro tables, VCD identifier allocation, large
   multiplexor cascades. *)

open Asim

let parse = Parser.parse_string

(* --- Pretty -------------------------------------------------------------- *)

let test_pretty_component () =
  let spec =
    parse
      "#p\na s m r .\nA a 4 m 1\nS s m.0 1 2\nM m 0 a 1 1\nM r 0 0 0 -4 12 34 56 78\n.\n"
  in
  let line name = Pretty.component (Spec.find_exn spec name) in
  Alcotest.(check string) "alu" "A a 4 m 1" (line "a");
  Alcotest.(check string) "selector" "S s m.0 1 2" (line "s");
  Alcotest.(check string) "memory" "M m 0 a 1 1" (line "m");
  Alcotest.(check string) "memory with init" "M r 0 0 0 -4 12 34 56 78" (line "r")

let test_pretty_spec_header () =
  let text = Pretty.spec (parse "#hello\n= 42\nx* y .\nA x 1 0 1\nA y 1 0 2\n.\n") in
  Alcotest.(check bool) "comment" true (String.length text > 0);
  let lines = String.split_on_char '\n' text in
  Alcotest.(check string) "line 1" "#hello" (List.nth lines 0);
  Alcotest.(check string) "line 2" "= 42" (List.nth lines 1);
  Alcotest.(check string) "decls" "x* y ." (List.nth lines 2)

(* --- Error ---------------------------------------------------------------- *)

let test_error_rendering () =
  let e =
    {
      Error.phase = Error.Parsing;
      message = "boom";
      position = Some { Error.line = 3; column = 7 };
      component = Some "alu";
    }
  in
  Alcotest.(check string)
    "full" "parse error at line 3, column 7 (component <alu>): boom"
    (Error.to_string e);
  Alcotest.(check string)
    "bare" "runtime error: x"
    (Error.to_string
       { Error.phase = Error.Runtime; message = "x"; position = None; component = None })

let test_error_fail_raises () =
  match Error.failf Error.Analysis "n=%d" 7 with
  | exception Error.Error { message = "n=7"; phase = Error.Analysis; _ } -> ()
  | _ -> Alcotest.fail "expected raise"

(* --- Depgraph ---------------------------------------------------------------- *)

(* A component's combinational dependencies, read off the resolved
   program: the ALUs and selectors its references name (memories' outputs
   are last cycle's, so a memory depends on nothing this cycle). *)
let test_dependencies () =
  let a = Analysis.analyze (parse "#d\na b m .\nA a 4 b m\nA b 4 m 1\nM m 0 a 1 1\n.\n") in
  let comb j = not (Component.is_memory a.Analysis.comps.(j)) in
  let deps name =
    let i = Analysis.id a name in
    if comb i then Analysis.names a (Array.of_list (List.filter comb (Array.to_list a.Analysis.refs.(i))))
    else []
  in
  Alcotest.(check (list string)) "evaluation order" [ "b"; "a" ] (Analysis.names a a.Analysis.order);
  Alcotest.(check (list string)) "a needs b (not the memory)" [ "b" ] (deps "a");
  Alcotest.(check (list string)) "b needs nothing combinational" [] (deps "b");
  Alcotest.(check (list string)) "memories impose no ordering" [] (deps "m")

(* --- Macro tables --------------------------------------------------------------- *)

let test_macro_definitions () =
  (* macro names parse greedily over letters and digits: "~a2" means the
     (undefined) macro a2, not "a" followed by "2" *)
  let _, tokens = Asim_syntax.Lexer.tokenize "#m\n~a 1\n~b ~a2\nfoo\n" in
  match Macro.consume tokens with
  | exception Error.Error { phase = Error.Parsing; _ } -> ()
  | _ -> Alcotest.fail "expected undefined-macro error for ~a2"

let test_macro_definitions_list () =
  let _, tokens = Asim_syntax.Lexer.tokenize "#m\n~a 1\n~b ~a.2\nfoo\n" in
  let table, _ = Macro.consume tokens in
  Alcotest.(check (list (pair string string)))
    "definition order, bodies expanded"
    [ ("a", "1"); ("b", "1.2") ]
    (Macro.definitions table)

(* --- VCD identifiers -------------------------------------------------------------- *)

let test_vcd_many_signals () =
  (* More than 94 signals forces two-character VCD identifier codes. *)
  let n = 120 in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "#many\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "c%d%s " i (if i < 2 then "*" else ""))
  done;
  Buffer.add_string buf ".\n";
  for i = 0 to n - 1 do
    Buffer.add_string buf (Printf.sprintf "A c%d 1 0 %d\n" i (i mod 7))
  done;
  Buffer.add_string buf ".\n";
  let analysis = load_string (Buffer.contents buf) in
  let m = machine ~config:Machine.quiet_config analysis in
  let names = List.init n (fun i -> Printf.sprintf "c%d" i) in
  let vcd = Vcd.record ~names m ~cycles:2 in
  (* every signal must have a distinct id; the 95th onward is 2 chars *)
  Alcotest.(check bool) "has two-char ids" true
    (String.length vcd > 0
    &&
    let contains needle =
      let nl = String.length needle and hl = String.length vcd in
      let rec go i = i + nl <= hl && (String.sub vcd i nl = needle || go (i + 1)) in
      go 0
    in
    contains "$var wire" && contains (Printf.sprintf " c%d $end" (n - 1)))

(* --- Large selector cascades -------------------------------------------------------- *)

let test_netlist_large_mux () =
  let spec = Asim_stackm.Microcode.spec ~program:Asim_stackm.Programs.sieve () in
  let net = Asim_netlist.Synth.synthesize (Asim_analysis.Analysis.analyze spec) in
  let rom = List.find (fun (i : Asim_netlist.Synth.instance) -> i.component = "rom") net.Asim_netlist.Synth.instances in
  (* 64 cases -> a two-level 8-to-1 cascade *)
  Alcotest.(check bool) "8-to-1 muxes present" true
    (List.exists (fun (p, n) -> p = Asim_netlist.Parts.Mux_8to1 && n > 8) rom.Asim_netlist.Synth.parts)

(* --- Spec helpers --------------------------------------------------------------------- *)

let test_spec_make_defaults () =
  let c = { Component.name = "x"; kind = Component.Alu { fn = [ Expr.num 1 ]; left = [ Expr.num 0 ]; right = [ Expr.num 1 ] } } in
  let spec = Spec.make [ c ] in
  Alcotest.(check int) "decl added" 1 (List.length spec.Spec.decls);
  Alcotest.(check (list string)) "untraced" [] (Spec.traced_names spec);
  Alcotest.(check bool) "no cycles" true (spec.Spec.cycles = None)

let test_valid_names () =
  Alcotest.(check bool) "alnum" true (Spec.is_valid_name "abc123");
  Alcotest.(check bool) "leading digit" false (Spec.is_valid_name "1abc");
  Alcotest.(check bool) "underscore" false (Spec.is_valid_name "a_b");
  Alcotest.(check bool) "empty" false (Spec.is_valid_name "")

(* --- the small example machines behave as advertised ----------------------- *)

let series source comp cycles =
  let analysis = load_string source in
  let m = machine ~config:Machine.quiet_config analysis in
  List.init cycles (fun _ ->
      Asim_sim.Machine.run m ~cycles:1;
      m.Machine.read comp)

let test_seven_segment () =
  let expected =
    [ 0b0111111; 0b0000110; 0b1011011; 0b1001111; 0b1100110; 0b1101101;
      0b1111101; 0b0000111; 0b1111111; 0b1101111; 0b1110111; 0b1111100;
      0b0111001; 0b1011110; 0b1111001; 0b1110001 ]
  in
  (* at cycle k the decoder sees digit = k *)
  Alcotest.(check (list int)) "segment patterns" expected
    (series Specs.seven_segment "segments" 16)

let test_pwm () =
  (* duty = 5: high while phase < 5; phase at cycle k is k (mod 16 slice) *)
  let out = series Specs.pwm "out" 32 in
  let expected = List.init 32 (fun k -> if k mod 16 < 5 then 1 else 0) in
  Alcotest.(check (list int)) "pwm waveform" expected out

let test_shifter () =
  (* 172 = 0b10101100 loaded at the end of cycle 0, then rotated right; the
     line output is the register's low bit, one cycle delayed. *)
  let bits = series Specs.shifter "bit" 17 in
  let expected_register k =
    (* value after the load and k rotations *)
    let rec rot v n =
      if n = 0 then v else rot (((v land 1) lsl 7) lor (v lsr 1)) (n - 1)
    in
    rot 172 k
  in
  List.iteri
    (fun cycle bit ->
      if cycle >= 1 then
        Alcotest.(check int)
          (Printf.sprintf "bit at cycle %d" cycle)
          (expected_register (cycle - 1) land 1)
          bit)
    bits

let () =
  Alcotest.run "misc"
    [
      ( "pretty",
        [
          Alcotest.test_case "components" `Quick test_pretty_component;
          Alcotest.test_case "spec header" `Quick test_pretty_spec_header;
        ] );
      ( "error",
        [
          Alcotest.test_case "rendering" `Quick test_error_rendering;
          Alcotest.test_case "failf" `Quick test_error_fail_raises;
        ] );
      ("depgraph", [ Alcotest.test_case "dependencies" `Quick test_dependencies ]);
      ( "macro",
        [
          Alcotest.test_case "greedy names" `Quick test_macro_definitions;
          Alcotest.test_case "definitions list" `Quick test_macro_definitions_list;
        ] );
      ("vcd", [ Alcotest.test_case "many signals" `Quick test_vcd_many_signals ]);
      ("netlist", [ Alcotest.test_case "64-way mux cascade" `Quick test_netlist_large_mux ]);
      ( "spec",
        [
          Alcotest.test_case "make defaults" `Quick test_spec_make_defaults;
          Alcotest.test_case "name validity" `Quick test_valid_names;
        ] );
      ( "example machines",
        [
          Alcotest.test_case "seven segment" `Quick test_seven_segment;
          Alcotest.test_case "pwm" `Quick test_pwm;
          Alcotest.test_case "shifter" `Quick test_shifter;
        ] );
    ]
