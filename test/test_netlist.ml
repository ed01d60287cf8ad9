(* Hardware synthesis: catalog parts, instance mapping, BOM, wiring, DOT. *)

open Asim
module Parts = Asim_netlist.Parts
module Synth = Asim_netlist.Synth

let synth source = Synth.synthesize (load_string source)

let instance net name =
  List.find (fun (i : Synth.instance) -> i.component = name) net.Synth.instances

let part_count net part =
  match List.assoc_opt part net.Synth.bom with Some n -> n | None -> 0

let test_register_sizing () =
  (* 1-bit register -> one dual flip-flop; 7-bit -> hex + dual. *)
  let net = synth "#c\nd n .\nA n 10 d 1\nM d 0 n.0 1 1\n.\n" in
  let parts_names ps = List.map (fun (p, n) -> (Parts.name p, n)) ps in
  Alcotest.(check (list (pair string int)))
    "1-bit register"
    [ ("dual D flip flop", 1) ]
    (parts_names (instance net "d").Synth.parts);
  let net7 = synth "#c\nd n .\nA n 10 d 1\nM d 0 n.0.6 1 1\n.\n" in
  Alcotest.(check (list (pair string int)))
    "7-bit register"
    [ ("hex D flip flop", 1); ("dual D flip flop", 1) ]
    (parts_names (instance net7 "d").Synth.parts)

let test_adder_and_comparator () =
  let net =
    synth "#c\nsum cmp a .\nA sum 4 a.0.7 1\nA cmp 12 a.0.7 5\nM a 0 sum.0.7 1 1\n.\n"
  in
  Alcotest.(check int) "two 4-bit adders for 9 bits" 3
    (part_count net Parts.Adder_4bit);
  (* sum: 9 bits -> 3 adders?  ceil(9/4)=3. *)
  Alcotest.(check int) "one comparator" 2 (part_count net Parts.Comparator_4bit)

let test_mux_selection () =
  let two = synth "#c\ns a .\nS s a.0 1 2\nM a 0 s.0.3 1 1\n.\n" in
  Alcotest.(check bool) "2-way uses quad 2-to-1" true
    (part_count two Parts.Quad_mux_2to1 > 0);
  let four = synth "#c\ns a .\nS s a.0.1 1 2 3 4\nM a 0 s.0.3 1 1\n.\n" in
  Alcotest.(check bool) "4-way uses dual 4-to-1" true
    (part_count four Parts.Dual_mux_4to1 > 0);
  let eight = synth "#c\ns a .\nS s a.0.2 1 2 3 4 5 6 7 8\nM a 0 s.0.3 1 1\n.\n" in
  Alcotest.(check bool) "8-way uses 8-to-1" true (part_count eight Parts.Mux_8to1 > 0)

let test_gate_packs () =
  let net =
    synth
      "#c\ng1 g2 g3 g4 a .\nA g1 8 a.0.3 5.4\nA g2 9 a.0.3 5.4\nA g3 10 a.0.3 5.4\n\
       A g4 3 a.0.3 0\nM a 0 g1 1 1\n.\n"
  in
  Alcotest.(check int) "AND pack" 1 (part_count net Parts.Quad_and);
  Alcotest.(check int) "OR pack" 1 (part_count net Parts.Quad_or);
  Alcotest.(check int) "XOR pack" 1 (part_count net Parts.Quad_xor);
  Alcotest.(check bool) "inverters" true (part_count net Parts.Hex_inverter > 0)

let test_ram_vs_rom () =
  (* Written multi-cell memory -> RAM; initialized, never-written -> ROM. *)
  let net =
    synth
      "#c\nc inc ram rom .\nA inc 4 c 1\nM ram c.0.1 c 1 4\nM rom c.0.1 0 0 -4 1 2 3 4\n\
       M c 0 inc 1 1\n.\n"
  in
  Alcotest.(check string) "ram role" "RAM" (instance net "ram").Synth.role;
  Alcotest.(check string) "rom role" "ROM" (instance net "rom").Synth.role

let test_pass_through_needs_no_parts () =
  let net = synth "#c\np a .\nA p 2 a 0\nM a 0 p 1 1\n.\n" in
  Alcotest.(check int) "wiring only" 0 (List.length (instance net "p").Synth.parts)

let test_wiring () =
  let net = synth (List.assoc "counter" Specs.all) in
  let wire =
    List.find
      (fun (w : Synth.wire) -> w.from_component = "count" && w.to_component = "inc")
      net.Synth.wires
  in
  Alcotest.(check string) "port" "left" wire.Synth.to_port;
  Alcotest.(check string) "bits" "[all]" wire.Synth.bits

let test_wiring_field_bits () =
  let net = synth "#c\nx a .\nA x 1 0 a.3.4\nM a 0 x 1 1\n.\n" in
  let wire =
    List.find (fun (w : Synth.wire) -> w.from_component = "a") net.Synth.wires
  in
  Alcotest.(check string) "field" "[3..4]" wire.Synth.bits

let test_tiny_computer_bom () =
  (* The Appendix F machine: its parts list uses exactly the thesis's part
     vocabulary. *)
  let spec = Asim_tinyc.Machine.spec ~program:Asim_tinyc.Machine.demo_image () in
  let net = Synth.synthesize (Analysis.analyze spec) in
  let bom = Synth.bom_to_string net in
  List.iter
    (fun needle ->
      let nl = String.length needle and hl = String.length bom in
      let rec go i = i + nl <= hl && (String.sub bom i nl = needle || go (i + 1)) in
      if not (go 0) then Alcotest.failf "BOM missing %S:\n%s" needle bom)
    [
      "dual D flip flop"; "quad D flip flop"; "hex D flip flop"; "4 bit adder";
      "4 bit comparator"; "4 bit alu"; "quad AND"; "128 x 8 bit RAM";
      "to 1 multiplexor";
    ]

let test_stack_machine_bom_has_big_ram () =
  let spec = Asim_stackm.Microcode.spec ~program:Asim_stackm.Programs.sieve () in
  let net = Synth.synthesize (Analysis.analyze spec) in
  Alcotest.(check bool) "4K RAM chips" true
    (List.exists
       (fun (p, _) -> match p with Parts.Ram { words = 4096; _ } -> true | _ -> false)
       net.Synth.bom)

let test_dot_output () =
  let net = synth (List.assoc "counter" Specs.all) in
  let dot = Synth.to_dot net in
  Alcotest.(check bool) "digraph" true (String.length dot > 20);
  Alcotest.(check string) "header" "digraph asim {" (String.sub dot 0 14)

let test_text_reports_nonempty () =
  let net = synth (List.assoc "traffic-light" Specs.all) in
  Alcotest.(check bool) "instances" true (String.length (Synth.instances_to_string net) > 0);
  Alcotest.(check bool) "wiring" true (String.length (Synth.wiring_to_string net) > 0);
  Alcotest.(check bool) "bom" true (String.length (Synth.bom_to_string net) > 0)

let () =
  Alcotest.run "netlist"
    [
      ( "parts",
        [
          Alcotest.test_case "register sizing" `Quick test_register_sizing;
          Alcotest.test_case "adders and comparators" `Quick test_adder_and_comparator;
          Alcotest.test_case "multiplexors" `Quick test_mux_selection;
          Alcotest.test_case "gate packs" `Quick test_gate_packs;
          Alcotest.test_case "ram vs rom" `Quick test_ram_vs_rom;
          Alcotest.test_case "pass-through" `Quick test_pass_through_needs_no_parts;
        ] );
      ( "wiring",
        [
          Alcotest.test_case "whole wire" `Quick test_wiring;
          Alcotest.test_case "field bits" `Quick test_wiring_field_bits;
        ] );
      ( "machines",
        [
          Alcotest.test_case "tiny computer BOM" `Quick test_tiny_computer_bom;
          Alcotest.test_case "stack machine RAM" `Quick test_stack_machine_bom_has_big_ram;
          Alcotest.test_case "dot" `Quick test_dot_output;
          Alcotest.test_case "reports" `Quick test_text_reports_nonempty;
        ] );
    ]
