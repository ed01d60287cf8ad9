(* Cross-reference checks, dependency ordering, width inference. *)

open Asim_core
module Analysis = Asim_analysis.Analysis
module Width = Asim_analysis.Width

let parse = Asim_syntax.Parser.parse_string

let order_names spec =
  let a = Analysis.analyze spec in
  Analysis.names a a.Analysis.order

let test_dependency_order () =
  (* b depends on a, c on b; declared in reverse. *)
  let spec =
    parse "#c\na b c t .\nA c 4 b 1\nA b 4 a 1\nA a 4 t 1\nM t 0 c 1 1\n.\n"
  in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] (order_names spec)

let test_memory_breaks_cycles () =
  (* inc depends on count (a memory): no combinational cycle. *)
  let spec = parse "#c\ncount inc .\nA inc 4 count 1\nM count 0 inc 1 1\n.\n" in
  Alcotest.(check (list string)) "just inc" [ "inc" ] (order_names spec)

let test_circular_dependency () =
  let spec = parse "#c\na b .\nA a 4 b 1\nA b 4 a 1\n.\n" in
  match Analysis.analyze spec with
  | exception Error.Error { phase = Error.Analysis; message; _ } ->
      Alcotest.(check bool)
        "paper-style message" true
        (String.length message > 0
        && String.sub message 0 24 = "Circular dependency with")
  | _ -> Alcotest.fail "expected circular dependency error"

let test_self_dependency () =
  let spec = parse "#c\na .\nA a 4 a 1\n.\n" in
  match Analysis.analyze spec with
  | exception Error.Error { phase = Error.Analysis; _ } -> ()
  | _ -> Alcotest.fail "expected circular dependency error"

let test_stable_order_is_deterministic () =
  let spec = parse "#c\nx y z t .\nA x 1 0 1\nA y 1 0 2\nA z 1 0 3\nM t 0 x 1 1\n.\n" in
  Alcotest.(check (list string)) "source order kept" [ "x"; "y"; "z" ] (order_names spec)

let test_undefined_reference () =
  let spec = parse "#c\na .\nA a 4 ghost 1\n.\n" in
  match Analysis.analyze spec with
  | exception Error.Error { phase = Error.Analysis; message; _ } ->
      Alcotest.(check string) "message" "Component <ghost> not found." message
  | _ -> Alcotest.fail "expected undefined reference error"

let test_declaration_warnings () =
  let spec = parse "#c\ndeclared a .\nA a 1 0 1\nA hidden 1 0 2\n.\n" in
  let analysis = Analysis.analyze spec in
  let messages = List.map Error.warning_to_string analysis.Analysis.warnings in
  Alcotest.(check bool) "declared but not defined" true
    (List.mem "Warning: declared declared but not defined." messages);
  Alcotest.(check bool) "defined but not declared" true
    (List.mem "Warning: hidden defined but not declared." messages)

let test_update_order_hazard () =
  (* b's data reads memory a, declared (and therefore updated) first. *)
  let spec = parse "#c\na b .\nM a 0 b 1 1\nM b 0 a 1 1\n.\n" in
  let analysis = Analysis.analyze spec in
  let hazards =
    List.filter
      (function Error.Memory_update_order _ -> true | _ -> false)
      analysis.Analysis.warnings
  in
  Alcotest.(check int) "one hazard (b after a)" 1 (List.length hazards);
  match hazards with
  | [ Error.Memory_update_order { reader; written_before } ] ->
      Alcotest.(check string) "reader" "b" reader;
      Alcotest.(check string) "written before" "a" written_before
  | _ -> Alcotest.fail "unexpected hazard shape"

let mem_of spec name =
  match (Spec.find_exn spec name).Component.kind with
  | Component.Memory m -> m
  | _ -> Alcotest.fail "expected memory"

let trace_cond = Alcotest.of_pp (fun ppf -> function
  | Analysis.Trace_never -> Format.pp_print_string ppf "never"
  | Analysis.Trace_always -> Format.pp_print_string ppf "always"
  | Analysis.Trace_runtime -> Format.pp_print_string ppf "runtime")

let test_trace_conditions () =
  let spec =
    parse
      "#c\nw r rw plain dyn x .\n\
       A x 1 0 1\n\
       M w 0 0 5 1\n\
       M r 0 0 8 1\n\
       M rw 0 0 13 1\n\
       M plain 0 0 1 1\n\
       M dyn 0 0 x.0.3 1\n\
       .\n"
  in
  Alcotest.check trace_cond "5 writes+trace" Analysis.Trace_always
    (Analysis.write_trace_condition (mem_of spec "w"));
  Alcotest.check trace_cond "8 = trace reads" Analysis.Trace_always
    (Analysis.read_trace_condition (mem_of spec "r"));
  Alcotest.check trace_cond "8 doesn't trace writes" Analysis.Trace_never
    (Analysis.write_trace_condition (mem_of spec "r"));
  Alcotest.check trace_cond "13 traces writes" Analysis.Trace_always
    (Analysis.write_trace_condition (mem_of spec "rw"));
  (* 13 has the write bit set, so [land 9 = 8] fails: no read trace. *)
  Alcotest.check trace_cond "13 has no read trace" Analysis.Trace_never
    (Analysis.read_trace_condition (mem_of spec "rw"));
  Alcotest.check trace_cond "plain write never traces" Analysis.Trace_never
    (Analysis.write_trace_condition (mem_of spec "plain"));
  Alcotest.check trace_cond "4-bit dynamic op needs runtime checks"
    Analysis.Trace_runtime
    (Analysis.write_trace_condition (mem_of spec "dyn"));
  Alcotest.check trace_cond "dynamic read trace" Analysis.Trace_runtime
    (Analysis.read_trace_condition (mem_of spec "dyn"))

let test_narrow_dynamic_op () =
  (* A 2-bit operation can never carry trace bits. *)
  let spec = parse "#c\nm x .\nA x 1 0 1\nM m 0 0 x.0.1 1\n.\n" in
  Alcotest.check trace_cond "too narrow" Analysis.Trace_never
    (Analysis.write_trace_condition (mem_of spec "m"))

let test_io_possible () =
  let spec = parse "#c\nro io dyn x .\nA x 1 0 1\nM ro 0 0 1 1\nM io 0 0 2 1\nM dyn 0 0 x.0.1 1\n.\n" in
  Alcotest.(check bool) "write-only cannot do I/O" false
    (Analysis.memory_io_possible (mem_of spec "ro"));
  Alcotest.(check bool) "input op" true (Analysis.memory_io_possible (mem_of spec "io"));
  Alcotest.(check bool) "dynamic might" true
    (Analysis.memory_io_possible (mem_of spec "dyn"))

(* --- lints ------------------------------------------------------------------ *)

let test_lints_clean_specs () =
  List.iter
    (fun source ->
      let analysis = Analysis.analyze (parse source) in
      Alcotest.(check int) "no lints" 0 (List.length (Analysis.lints analysis)))
    [
      "#c\ncount inc .\nA inc 4 count 1\nM count 0 inc 1 1\n.\n";
      (* exact-width selector *)
      "#c\ns m .\nS s m.0.1 1 2 3 4\nM m 0 s 1 1\n.\n";
    ]

let test_lint_selector_overrun () =
  (* a whole-width select over 2 cases can overrun *)
  let analysis = Analysis.analyze (parse "#c\ns c i .\nA i 4 c 1\nS s c 1 2\nM c 0 i 1 1\n.\n") in
  match Analysis.lints analysis with
  | [ Analysis.Selector_possible_overrun { selector = "s"; cases = 2; _ } ] -> ()
  | l -> Alcotest.failf "expected one selector lint, got %d" (List.length l)

let test_lint_const_out_of_range () =
  let analysis = Analysis.analyze (parse "#c\ns x .\nS s 7 1 2\nA x 1 0 1\n.\n") in
  Alcotest.(check bool) "constant overrun flagged" true
    (List.exists
       (function Analysis.Selector_possible_overrun _ -> true | _ -> false)
       (Analysis.lints analysis))

let test_lint_stack_machine_prog () =
  (* the real one: the program ROM the thesis bounded at 5545 cycles *)
  let analysis =
    Analysis.analyze
      (Asim_stackm.Microcode.spec ~program:Asim_stackm.Programs.sieve ())
  in
  match Analysis.lints analysis with
  | [ Analysis.Address_possible_overrun { memory = "prog"; _ } ] -> ()
  | l -> Alcotest.failf "expected exactly the prog lint, got %d" (List.length l)

let test_width_inference () =
  let a = Analysis.analyze (Asim_tinyc.Machine.spec ~program:Asim_tinyc.Machine.demo_image ()) in
  let widths = Analysis.widths a in
  let w name = widths.(Analysis.id a name) in
  Alcotest.(check int) "phase one-hot" 4 (w "phase");
  Alcotest.(check int) "decode" 4 (w "decode");
  (* the function input is computed at run time and dologic includes NOT,
     so the ALU's output can fill the word *)
  Alcotest.(check int) "alu" 31 (w "alu");
  Alcotest.(check int) "borrow flag" 1 (w "borrow");
  Alcotest.(check int) "ac" 11 (w "ac");
  Alcotest.(check int) "comparator output" 1 (w "sub")

let test_width_expr () =
  let a = Analysis.analyze (parse "#c\na b .\nA a 12 b 1\nM b 0 a 1 1\n.\n") in
  let widths = Analysis.widths a in
  Alcotest.(check int) "compare is 1 bit" 1 widths.(Analysis.id a "a");
  Alcotest.(check int) "register follows data" 1 widths.(Analysis.id a "b");
  (* the memory's data expression reads [a]: its width is [a]'s *)
  Alcotest.(check int) "expression width" 1
    (Width.expr_width widths (fun () -> Analysis.id a "a") [ Expr.ref_ "a" ])

let test_lints_linear () =
  Linear.check "Analysis.lints" (fun n -> Analysis.analyze (Linear.pipeline n)) Analysis.lints

let () =
  Alcotest.run "analysis"
    [
      ( "dependencies",
        [
          Alcotest.test_case "topological order" `Quick test_dependency_order;
          Alcotest.test_case "memories break cycles" `Quick test_memory_breaks_cycles;
          Alcotest.test_case "circular dependency" `Quick test_circular_dependency;
          Alcotest.test_case "self dependency" `Quick test_self_dependency;
          Alcotest.test_case "deterministic order" `Quick test_stable_order_is_deterministic;
        ] );
      ( "resolution",
        [
          Alcotest.test_case "undefined reference" `Quick test_undefined_reference;
          Alcotest.test_case "declaration warnings" `Quick test_declaration_warnings;
          Alcotest.test_case "update-order hazard" `Quick test_update_order_hazard;
        ] );
      ( "trace and io",
        [
          Alcotest.test_case "trace conditions" `Quick test_trace_conditions;
          Alcotest.test_case "narrow dynamic op" `Quick test_narrow_dynamic_op;
          Alcotest.test_case "io possible" `Quick test_io_possible;
        ] );
      ( "lints",
        [
          Alcotest.test_case "clean specs" `Quick test_lints_clean_specs;
          Alcotest.test_case "selector overrun" `Quick test_lint_selector_overrun;
          Alcotest.test_case "constant out of range" `Quick test_lint_const_out_of_range;
          Alcotest.test_case "stack machine prog ROM" `Quick test_lint_stack_machine_prog;
          Alcotest.test_case "lints linear" `Quick test_lints_linear;
        ] );
      ( "width",
        [
          Alcotest.test_case "tiny computer widths" `Quick test_width_inference;
          Alcotest.test_case "comparator width" `Quick test_width_expr;
        ] );
    ]
