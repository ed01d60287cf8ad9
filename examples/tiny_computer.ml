(* The Appendix F tiny computer: a 10-bit, five-instruction microprocessor
   whose specification maps one-to-one onto catalog hardware.

     dune exec examples/tiny_computer.exe
*)

let () =
  let image = Asim_tinyc.Machine.demo_image in
  print_endline "program:";
  print_string (Asim_tinyc.Asm.disassemble image);
  print_newline ();

  (* Watch the first few instructions execute, four cycles each. *)
  let spec =
    Asim_tinyc.Machine.spec ~traced:[ "pc"; "ir"; "ac"; "borrow" ] ~program:image ()
  in
  let analysis = Asim.Analysis.analyze spec in
  let buf = Buffer.create 1024 in
  let config = { Asim.Machine.quiet_config with trace = Asim.Trace.buffer_sink buf } in
  let machine = Asim.machine ~config analysis in
  Asim.Machine.run machine ~cycles:24;
  print_endline "first six instructions (4 cycles each):";
  print_string (Buffer.contents buf);

  (* Run to completion and check the computation: 10 - 3 counted down. *)
  let obs = Asim_tinyc.Machine.run image in
  Printf.printf "\nafter %d cycles: pc=%d (halt spin), borrow=%d, ac=%d\n"
    Asim_tinyc.Machine.demo_cycles obs.Asim_tinyc.Machine.pc obs.borrow obs.ac;

  (* The §5.3 construction story: map the spec onto shelf parts. *)
  let net = Asim_netlist.Synth.synthesize analysis in
  print_endline "\nhardware realization (Appendix F):";
  print_endline (Asim_netlist.Synth.instances_to_string net);
  print_endline "\nbill of materials:";
  print_endline (Asim_netlist.Synth.bom_to_string net)
