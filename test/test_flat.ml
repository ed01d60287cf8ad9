(* Tests specific to the flat-kernel engine ([Asim_flat.Flat]): cycle-level
   differential checks against the closure compiler and the interpreter on
   the two big demo machines, activity-scheduling (dirty-bit) behavior on a
   hand-built diamond dependency graph, the zero-per-cycle-allocation
   guarantee, and the codegen spans.  The generic cross-engine semantics
   matrix lives in test_engines.ml / test_equiv.ml, which iterate over
   [Oracle.all] and so cover the flat engine too. *)

module Machine = Asim.Machine
module Flat = Asim.Flat
module Oracle = Asim_fuzz.Oracle

let quiet = Machine.quiet_config

(* ------------------------------------------------------------------ *)
(* Cycle-for-cycle differentials on the goldens                       *)
(* ------------------------------------------------------------------ *)

(* Step [cycles] cycles with all engines in lockstep; after every cycle every
   component output must agree, and at the end the memory images must too. *)
let lockstep name (spec : Asim.Spec.t) ~cycles =
  let analysis = Asim.Analysis.analyze spec in
  let names =
    List.map (fun (c : Asim.Component.t) -> c.Asim.Component.name)
      spec.Asim.Spec.components
  in
  let engines =
    [
      ("interp", Asim.Interp.create ~config:quiet analysis);
      ("compiled", Asim.Compile.create ~config:quiet analysis);
      ("flat", Flat.create ~config:quiet ~schedule:Flat.Activity analysis);
      ("flat-full", Flat.create ~config:quiet ~schedule:Flat.Full analysis);
    ]
  in
  let reference = snd (List.hd engines) in
  for cycle = 1 to cycles do
    List.iter (fun (_, m) -> m.Machine.step ()) engines;
    List.iter
      (fun comp ->
        let expect = reference.Machine.read comp in
        List.iter
          (fun (ename, m) ->
            let got = m.Machine.read comp in
            if got <> expect then
              Alcotest.failf "%s: cycle %d, component %s: %s=%d, interp=%d"
                name cycle comp ename got expect)
          (List.tl engines))
      names
  done;
  (* Final memory images. *)
  List.iter
    (fun (c : Asim.Component.t) ->
      match c.Asim.Component.kind with
      | Asim.Component.Memory { cells; _ } ->
          for i = 0 to cells - 1 do
            let expect = reference.Machine.read_cell c.Asim.Component.name i in
            List.iter
              (fun (ename, m) ->
                Alcotest.(check int)
                  (Printf.sprintf "%s: %s cell %s[%d]" name ename
                     c.Asim.Component.name i)
                  expect
                  (m.Machine.read_cell c.Asim.Component.name i))
              (List.tl engines)
          done
      | _ -> ())
    spec.Asim.Spec.components

let test_lockstep_sieve () =
  lockstep "stackm-sieve"
    (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
    ~cycles:1500

let test_lockstep_tinyc () =
  lockstep "tinyc-demo"
    (Asim_tinyc.Machine.spec ~program:Asim_tinyc.Machine.demo_image ())
    ~cycles:800

(* ------------------------------------------------------------------ *)
(* Fuzz oracle with the flat engines in the lineup                    *)
(* ------------------------------------------------------------------ *)

(* A small deterministic sweep of generated specs through [Oracle.check]
   with the default engine list, which now includes [Flat] and [FlatFull].
   The full QCheck campaign lives in test_equiv.ml; this pins the flat
   engine's membership in the oracle regardless of that suite's config. *)
let test_oracle_generated () =
  assert (List.mem Oracle.Flat Oracle.all);
  assert (List.mem Oracle.FlatFull Oracle.all);
  for index = 0 to 19 do
    let spec = Asim_fuzz.Gen.(spec_at default_size) ~seed:0xf1a7 ~index in
    match Oracle.check ~cycles:40 spec with
    | None -> ()
    | Some d ->
        Alcotest.failf "generated spec %d diverged: %s" index
          (Oracle.divergence_to_string d)
  done

let test_oracle_examples () =
  List.iter
    (fun (name, source) ->
      let spec = Asim.Parser.parse_string source in
      match Oracle.check ~cycles:200 spec with
      | None -> ()
      | Some d ->
          Alcotest.failf "example %s diverged: %s" name
            (Oracle.divergence_to_string d))
    Asim.Specs.all

(* ------------------------------------------------------------------ *)
(* Activity scheduling on a diamond dependency graph                  *)
(* ------------------------------------------------------------------ *)

(* r is a register counting every cycle; [a] watches its low bit (changes
   every cycle); [z] = r AND 0 is re-evaluated every cycle but its *value*
   never changes, so the diamond b/c/d downstream of z must stay asleep
   after the initial full evaluation.  [q] depends on nothing at all. *)
let diamond =
  "# diamond\n\
   r rinc a z b c d q .\n\
   A rinc 4 r 1\n\
   A a 2 r.0 0\n\
   A z 8 r 0\n\
   A b 2 z 0\n\
   A c 2 z 0\n\
   A d 4 b c\n\
   A q 2 7 0\n\
   M r 0 rinc 1 1\n\
   .\n"

let eval_counts ~schedule source ~cycles =
  let analysis = Asim.load_string source in
  let m, counts = Flat.create_debug ~config:quiet ~schedule analysis in
  Machine.run m ~cycles;
  counts ()

let count name counts =
  match List.assoc_opt name counts with
  | Some n -> n
  | None -> Alcotest.failf "no eval count for %s" name

let test_dirty_seeding () =
  let cycles = 50 in
  let counts = eval_counts ~schedule:Flat.Activity diamond ~cycles in
  (* Components fed by the always-changing register re-evaluate every
     cycle... *)
  List.iter
    (fun n -> Alcotest.(check int) (n ^ " evals") cycles (count n counts))
    [ "rinc"; "a"; "z" ];
  (* ...but z's output is constant, so the diamond below it — and the
     input-free q — run exactly once (the initial dirty seeding). *)
  List.iter
    (fun n -> Alcotest.(check int) (n ^ " evals") 1 (count n counts))
    [ "b"; "c"; "d"; "q" ]

let test_full_ablation_counts () =
  let cycles = 50 in
  let counts = eval_counts ~schedule:Flat.Full diamond ~cycles in
  List.iter
    (fun (n, c) -> Alcotest.(check int) (n ^ " evals") cycles c)
    counts

(* Activity scheduling must not change what the machine computes. *)
let test_diamond_semantics () =
  lockstep "diamond" (Asim.Parser.parse_string diamond) ~cycles:50

(* ------------------------------------------------------------------ *)
(* Zero per-cycle allocation                                          *)
(* ------------------------------------------------------------------ *)

(* With quiet I/O and no tracing, the flat step loop must not allocate:
   run 2000 cycles of the sieve machine and require the minor-heap delta to
   stay under a small epsilon (Gc.minor_words itself returns a boxed float,
   and the allowance absorbs such one-off boxes — what matters is that the
   delta does not scale with the cycle count). *)
let minor_words_for schedule =
  let analysis =
    Asim.Analysis.analyze
      (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
  in
  let m = Flat.create ~config:quiet ~schedule analysis in
  Machine.run m ~cycles:64;
  (* warm-up *)
  let before = Gc.minor_words () in
  for _ = 1 to 2000 do
    m.Machine.step ()
  done;
  Gc.minor_words () -. before

let test_zero_allocation () =
  List.iter
    (fun (name, schedule) ->
      let delta = minor_words_for schedule in
      if delta > 256.0 then
        Alcotest.failf "flat (%s) allocated %.0f minor words over 2000 cycles"
          name delta)
    [ ("activity", Flat.Activity); ("full", Flat.Full) ]

(* Contrast: the interpreter allocates per cycle, proving the measurement
   would catch an allocating step loop. *)
let test_interp_allocates () =
  let analysis =
    Asim.Analysis.analyze
      (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
  in
  let m = Asim.Interp.create ~config:quiet analysis in
  Machine.run m ~cycles:64;
  let before = Gc.minor_words () in
  for _ = 1 to 2000 do
    m.Machine.step ()
  done;
  let delta = Gc.minor_words () -. before in
  Alcotest.(check bool) "interp allocates" true (delta > 2000.0)

(* ------------------------------------------------------------------ *)
(* Compile-time metrics and spans                                     *)
(* ------------------------------------------------------------------ *)

let test_program_size () =
  let analysis =
    Asim.Analysis.analyze
      (Asim_stackm.Microcode.spec ~program:Asim_stackm.Demos.sieve_reassembled ())
  in
  Alcotest.(check bool) "non-trivial program" true
    (Flat.program_size analysis > 100)

(* The emitter's peephole is always on.  At -O0 (no middle-end) the
   concatenation [x.4.7,x.0.3] fuses into one masked load (6 words instead
   of 9) and the constant in-range selector compiles to its live case (5
   words instead of 17); the memory's three expressions take 11.  An
   out-of-range constant selector keeps its dispatch, so it still raises. *)
let peephole_spec select =
  Printf.sprintf
    "# peephole\n= 4\nx* y z .\nA y 1 0 x.4.7,x.0.3\nS z %d x y\nM x 0 z 1 1\n.\n"
    select

let test_peephole () =
  Alcotest.(check int) "program words" 22
    (Flat.program_size (Asim.load_string (peephole_spec 1)));
  let m = Flat.create ~config:quiet (Asim.load_string (peephole_spec 2)) in
  match Machine.run m ~cycles:1 with
  | () -> Alcotest.fail "out-of-range constant selector did not raise"
  | exception Asim.Error.Error { phase = Asim.Error.Runtime; _ } -> ()

let test_codegen_spans () =
  let tracer = Asim_obs.Tracer.create () in
  let analysis = Asim.load_string diamond in
  let (_ : Machine.t) = Flat.create ~config:quiet ~tracer analysis in
  let names =
    List.map (fun (e : Asim_obs.Tracer.event) -> e.Asim_obs.Tracer.name)
      (Asim_obs.Tracer.events tracer)
  in
  List.iter
    (fun span ->
      Alcotest.(check bool) (span ^ " span emitted") true (List.mem span names))
    [ "codegen.flat.layout"; "codegen.flat.emit"; "codegen.flat.wire" ]

let () =
  Alcotest.run "flat"
    [
      ( "lockstep",
        [
          Alcotest.test_case "stackm sieve" `Slow test_lockstep_sieve;
          Alcotest.test_case "tinyc demo" `Slow test_lockstep_tinyc;
          Alcotest.test_case "diamond" `Quick test_diamond_semantics;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "generated specs" `Slow test_oracle_generated;
          Alcotest.test_case "example specs" `Quick test_oracle_examples;
        ] );
      ( "activity",
        [
          Alcotest.test_case "dirty-bit seeding" `Quick test_dirty_seeding;
          Alcotest.test_case "full ablation" `Quick test_full_ablation_counts;
        ] );
      ( "allocation",
        [
          Alcotest.test_case "flat step loop is allocation-free" `Quick
            test_zero_allocation;
          Alcotest.test_case "interp contrast" `Quick test_interp_allocates;
        ] );
      ( "codegen",
        [
          Alcotest.test_case "program size" `Quick test_program_size;
          Alcotest.test_case "peephole" `Quick test_peephole;
          Alcotest.test_case "spans" `Quick test_codegen_spans;
        ] );
    ]
