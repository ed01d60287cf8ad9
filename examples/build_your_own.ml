(* Building a machine programmatically — the library-as-API route.

   Everything the text syntax can say, the [Asim.Expr]/[Asim.Component]
   constructors can say directly; machine generators (like the stack
   machine's microcode builder) work this way.  Here: a saturating
   up/down counter with an external direction input, assembled in OCaml,
   then inspected, simulated, synthesized and exported.

     dune exec examples/build_your_own.exe
*)

open Asim

let spec =
  let e = Expr.of_atoms in
  let alu name fn left right = { Component.name; kind = Component.Alu { fn; left; right } } in
  let sel name select cases =
    { Component.name; kind = Component.Selector { select; cases = Array.of_list cases } }
  in
  let mem name addr data op cells init =
    { Component.name; kind = Component.Memory { addr; data; op; cells; init } }
  in
  let components =
    [
      (* direction flag flips every 10 cycles: timer counts 0..9 *)
      alu "tick" (e [ Expr.num 4 ]) (e [ Expr.ref_ "timer" ]) (e [ Expr.num 1 ]);
      alu "wrap" (e [ Expr.num 12 ]) (e [ Expr.ref_ "timer" ]) (e [ Expr.num 9 ]);
      sel "nexttimer" (e [ Expr.ref_bit "wrap" 0 ]) [ e [ Expr.ref_ "tick" ]; e [ Expr.num 0 ] ];
      alu "nextdir" (e [ Expr.num 10 ]) (e [ Expr.ref_ "dir" ]) (e [ Expr.ref_bit "wrap" 0 ]);
      (* the counter: +1 or -1 by direction, saturating at 0 and 15 *)
      alu "up" (e [ Expr.num 4 ]) (e [ Expr.ref_ "count" ]) (e [ Expr.num 1 ]);
      alu "down" (e [ Expr.num 5 ]) (e [ Expr.ref_ "count" ]) (e [ Expr.num 1 ]);
      alu "attop" (e [ Expr.num 12 ]) (e [ Expr.ref_ "count" ]) (e [ Expr.num 15 ]);
      alu "atbottom" (e [ Expr.num 12 ]) (e [ Expr.ref_ "count" ]) (e [ Expr.num 0 ]);
      (* select on {dir, at-limit}: 2 bits *)
      sel "limit" (e [ Expr.ref_bit "dir" 0 ])
        [ e [ Expr.ref_bit "attop" 0 ]; e [ Expr.ref_bit "atbottom" 0 ] ];
      sel "step" (e [ Expr.ref_bit "dir" 0 ]) [ e [ Expr.ref_ "up" ]; e [ Expr.ref_ "down" ] ];
      sel "nextcount" (e [ Expr.ref_bit "limit" 0 ])
        [ e [ Expr.ref_ "step" ]; e [ Expr.ref_ "count" ] ];
      mem "timer" (e [ Expr.num 0 ]) (e [ Expr.ref_ "nexttimer" ]) (e [ Expr.num 1 ]) 1 None;
      mem "dir" (e [ Expr.num 0 ]) (e [ Expr.ref_bit "nextdir" 0 ]) (e [ Expr.num 1 ]) 1 None;
      mem "count" (e [ Expr.num 0 ]) (e [ Expr.ref_range "nextcount" 0 4 ]) (e [ Expr.num 1 ]) 1 None;
    ]
  in
  let decls =
    List.map
      (fun (c : Component.t) ->
        { Spec.name = c.name; traced = List.mem c.name [ "count"; "dir" ] })
      components
  in
  Spec.make ~comment:" saturating up/down counter, built through the API" ~cycles:40
    ~decls components

let () =
  (* the canonical text form round-trips through the parser *)
  print_endline "canonical source:";
  print_string (Pretty.spec spec);
  assert (Parser.parse_string (Pretty.spec spec) = spec);

  let analysis = Analysis.analyze spec in
  Printf.printf "\nevaluation order: %s\n\n"
    (String.concat " " (Analysis.names analysis analysis.Analysis.order));

  (* simulate: watch the count rise, saturate, and fall *)
  let machine = machine ~config:Machine.quiet_config analysis in
  let series =
    List.init 40 (fun _ ->
        Machine.run machine ~cycles:1;
        machine.Machine.read "count")
  in
  Printf.printf "count: %s\n\n" (String.concat " " (List.map string_of_int series));

  (* and everything else applies to it too *)
  let net = Asim_netlist.Synth.synthesize analysis in
  print_endline "hardware parts:";
  print_endline (Asim_netlist.Synth.bom_to_string net);
  let gates = Asim_gates.Circuit.of_analysis analysis in
  let s = Asim_gates.Circuit.stats gates in
  Printf.printf "\ngate level: %d gates, %d flip-flops\n" s.Asim_gates.Circuit.gate_count
    s.Asim_gates.Circuit.dff_count
