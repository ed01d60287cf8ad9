(* The benchmark program.  [run.py] builds it and calls it twice per run:

     main.exe gen --workload W --seed S --seconds N --dir D
       writes the workload's inputs (spec text or request lines) into D;
     main.exe run --workload W --seed S --seconds N --trace 0|1 --dir D
                  --trace-out FILE
       measures, checks, and prints the result line (exit 1 when a check
       fails). *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 in
  let trace = ref 0 and dir = ref "." and trace_out = ref "trace.json" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, "NAME workload");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_int seconds, "N measuring time");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--dir", Arg.Set_string dir, "DIR where inputs live");
      ("--trace-out", Arg.Set_string trace_out, "FILE Chrome trace of a traced run");
    ]
  in
  let mode = ref "" in
  Arg.parse specs (fun m -> mode := m) "main.exe (gen|run) [options]";
  let trace = !trace = 1 in
  let code =
    match (!mode, List.find_opt (fun (w : Workload.single) -> w.name = !workload) Workload.singles) with
    | "gen", _ ->
        Workload.generate ~name:!workload ~seed:!seed ~seconds:!seconds ~dir:!dir;
        0
    | "run", Some w ->
        Single.run w ~seed:!seed ~seconds:!seconds ~trace ~dir:!dir ~trace_out:!trace_out
    | "run", None when !workload = Workload.serve_name ->
        Serve_mixed.run ~seed:!seed ~trace ~dir:!dir ~trace_out:!trace_out
    | _ ->
        prerr_endline "usage: main.exe (gen|run) --workload NAME [options]";
        2
  in
  exit code
