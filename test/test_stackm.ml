(* The Itty Bitty Stack Machine: the Appendix D/E reproduction and the
   recovered instruction set. *)

module Isa = Asim_stackm.Isa
module Asm = Asim_stackm.Asm
module Microcode = Asim_stackm.Microcode
module Programs = Asim_stackm.Programs
module Demos = Asim_stackm.Demos

let primes = Programs.sieve_expected_primes

let check_outputs label expected outputs =
  Alcotest.(check (list int)) label expected outputs

(* --- the headline reproduction -------------------------------------------- *)

let test_sieve_interp () =
  check_outputs "primes under the interpreter" primes
    (Programs.run_collect_outputs ~engine:`Interp Programs.sieve)

let test_sieve_compiled () =
  check_outputs "primes under the compiler" primes
    (Programs.run_collect_outputs ~engine:`Compiled Programs.sieve)

let test_sieve_needs_all_cycles () =
  (* §5.2: the run uses the full 5545-cycle budget; 90% is not enough to
     emit the last prime. *)
  let early = Programs.run_collect_outputs ~cycles:5000 Programs.sieve in
  Alcotest.(check bool) "shorter run emits fewer primes" true
    (List.length early < List.length primes)

let test_sieve_reassembled () =
  check_outputs "reassembled sieve agrees" primes
    (Programs.run_collect_outputs ~cycles:Demos.sieve_reassembled_cycles
       Demos.sieve_reassembled)

(* --- assembler-written programs ------------------------------------------- *)

let test_countdown () =
  check_outputs "countdown 7" [ 7; 6; 5; 4; 3; 2; 1 ]
    (Programs.run_collect_outputs ~cycles:(Demos.countdown_cycles 7) (Demos.countdown 7))

let test_countdown_one () =
  check_outputs "countdown 1" [ 1 ]
    (Programs.run_collect_outputs ~cycles:(Demos.countdown_cycles 1) (Demos.countdown 1))

let test_squares () =
  check_outputs "squares 5" [ 1; 4; 9; 16; 25 ]
    (Programs.run_collect_outputs ~cycles:(Demos.squares_cycles 5) (Demos.squares 5))

let test_fibonacci () =
  check_outputs "first 8 fibonacci" [ 0; 1; 1; 2; 3; 5; 8; 13 ]
    (Programs.run_collect_outputs ~cycles:(Demos.fibonacci_cycles 8) (Demos.fibonacci 8))

let test_gcd () =
  let gcd a b =
    Programs.run_collect_outputs ~cycles:Demos.gcd_cycles (Demos.gcd a b)
  in
  check_outputs "gcd 48 36" [ 12 ] (gcd 48 36);
  check_outputs "gcd 17 5 (coprime)" [ 1 ] (gcd 17 5);
  check_outputs "gcd 9 9 (equal)" [ 9 ] (gcd 9 9);
  check_outputs "gcd 5 40 (divides)" [ 5 ] (gcd 5 40)

let test_gcd_all_levels () =
  let program = Demos.gcd 252 105 in
  let rtl = Programs.run_collect_outputs ~cycles:Demos.gcd_cycles program in
  let isp = Asim_stackm.Ispsim.run_collect_outputs program in
  Alcotest.(check (list int)) "rtl result" [ 21 ] rtl;
  Alcotest.(check (list int)) "isp agrees" rtl isp

let test_sum_of_inputs () =
  let spec = Microcode.spec ~program:Demos.sum_of_inputs () in
  let analysis = Asim.Analysis.analyze spec in
  let io, events = Asim.Io.recording ~feed:[ 7; 10; 25; 0 ] () in
  let m =
    Asim.Compile.create ~config:{ Asim.Machine.quiet_config with io } analysis
  in
  Asim.Machine.run m ~cycles:Demos.sum_of_inputs_cycles;
  let outs =
    List.filter_map
      (function Asim.Io.Output { data; _ } -> Some data | _ -> None)
      (events ())
  in
  Alcotest.(check (list int)) "sum" [ 42 ] outs

(* --- ISA encode/decode ------------------------------------------------------ *)

let all_ops =
  [
    Isa.Ldz; Isa.Ld0 0; Isa.Ld0 15; Isa.Ld1 9; Isa.Dupe; Isa.And_; Isa.Less;
    Isa.Equal; Isa.Not_; Isa.Neg; Isa.Add; Isa.Mpy; Isa.Ld; Isa.St; Isa.Bz;
    Isa.Glob; Isa.Nop; Isa.Ldc 0; Isa.Ldc 58; Isa.Ldc 4096; Isa.Ldc 65535;
    Isa.Swap; Isa.Index; Isa.Enter; Isa.Exit_; Isa.Call;
  ]

let test_encode_decode_roundtrip () =
  List.iter
    (fun op ->
      let words = Array.of_list (Isa.encode op) in
      match Isa.decode words 0 with
      | Some (decoded, next) ->
          if decoded <> op then Alcotest.failf "round-trip failed for %s" (Isa.name op);
          Alcotest.(check int) (Isa.name op ^ " size") (Array.length words) next
      | None -> Alcotest.failf "decode failed for %s" (Isa.name op))
    all_ops

let test_encode_sizes () =
  Alcotest.(check int) "single word" 1 (Isa.size Isa.Dupe);
  Alcotest.(check int) "nibble push" 2 (Isa.size (Isa.Ld0 3));
  Alcotest.(check int) "escape" 2 (Isa.size Isa.Swap);
  Alcotest.(check int) "long constant" 6 (Isa.size (Isa.Ldc 100))

let test_encode_bounds () =
  Alcotest.check_raises "nibble range"
    (Invalid_argument "Isa: nibble operand out of range") (fun () ->
      ignore (Isa.encode (Isa.Ld0 16)));
  Alcotest.check_raises "ldc range"
    (Invalid_argument "Isa: LDC constant out of range") (fun () ->
      ignore (Isa.encode (Isa.Ldc 65536)))

let test_disassemble_sieve () =
  let listing = Isa.disassemble Programs.sieve in
  List.iter
    (fun needle ->
      if
        not
          (let nl = String.length needle and hl = String.length listing in
           let rec go i =
             i + nl <= hl && (String.sub listing i nl = needle || go (i + 1))
           in
           go 0)
      then Alcotest.failf "listing should mention %s" needle)
    [ "enter"; "ldc 58"; "ldc 4096"; "ldc 93"; "swap"; "equal"; "bz" ]

(* --- assembler --------------------------------------------------------------- *)

let test_assembler_forward_backward () =
  (* jump over a block, then back: both offset signs and sizes. *)
  let program =
    Asm.assemble
      [
        Asm.op Isa.Nop;
        Asm.push 0;
        Asm.bz "fwd";
        Asm.push 999;
        Asm.label "fwd";
        Asm.label "halt";
        Asm.jmp "halt";
      ]
  in
  Alcotest.(check bool) "assembles" true (Array.length program > 0)

let test_assembler_duplicate_label () =
  match Asm.assemble [ Asm.label "x"; Asm.label "x" ] with
  | exception Asim.Error.Error _ -> ()
  | _ -> Alcotest.fail "expected duplicate-label error"

let test_assembler_undefined_label () =
  match Asm.assemble [ Asm.jmp "nowhere" ] with
  | exception Asim.Error.Error _ -> ()
  | _ -> Alcotest.fail "expected undefined-label error"

let test_assembler_long_branch () =
  (* A branch across > 31 words forces the 6-word LDC offset encoding and
     the fixpoint must converge. *)
  let filler = List.init 40 (fun _ -> Asm.op Isa.Dupe) in
  let program =
    Asm.assemble
      (List.concat
         [
           [ Asm.push 0; Asm.bz "far" ];
           filler;
           [ Asm.label "far"; Asm.label "halt"; Asm.jmp "halt" ];
         ])
  in
  (* after the 1-word "push 0", the branch offset must be an escaped LDC:
     words 0,1 then four nibbles *)
  Alcotest.(check int) "ldz" 1 program.(0);
  Alcotest.(check int) "escape word" 0 program.(1);
  Alcotest.(check int) "ldc selector" 1 program.(2)

(* Run an assembled long-branch program to prove the offsets really land. *)
let test_long_branch_runs () =
  let filler =
    (* skipped code that would output 99 if executed *)
    List.concat (List.init 8 (fun _ -> [ Asm.push 99 ] @ Asm.output_top))
  in
  let program =
    Asm.assemble
      (List.concat
         [
           [ Asm.op Isa.Nop ];
           Asm.enter_frame 2;
           [ Asm.push 0; Asm.bz "past" ];
           filler;
           [ Asm.label "past"; Asm.push 5 ];
           Asm.output_top;
           [ Asm.label "halt"; Asm.jmp "halt" ];
         ])
  in
  check_outputs "only 5 is emitted" [ 5 ]
    (Programs.run_collect_outputs ~cycles:2000 program)

(* --- textual assembly --------------------------------------------------------- *)

module Asmtext = Asim_stackm.Asmtext

let test_asmtext_countdown () =
  let source =
    "; countdown\n\
     \tnop\n\
     \tenter 2\n\
     \tpush 4\n\
     \tstore 1\n\
     loop: load 1\n\
     \tout\n\
     \tload 1\n\
     \tpush 1\n\
     \tneg\n\
     \tadd\n\
     \tdupe\n\
     \tstore 1\n\
     \tbz done   ; exit when zero\n\
     \tjmp loop\n\
     done: jmp done\n"
  in
  check_outputs "assembled from text" [ 4; 3; 2; 1 ]
    (Programs.run_collect_outputs ~cycles:2500 (Asmtext.assemble source))

let test_asmtext_matches_builder () =
  (* The textual form of the countdown must encode identically to the
     combinator-built program. *)
  let source =
    "nop\nenter 2\npush 5\nstore 1\nloop: load 1\nout\nload 1\npush 1\nneg\n\
     add\ndupe\nstore 1\nbz done\njmp loop\ndone: jmp done\n"
  in
  Alcotest.(check (list int))
    "identical images"
    (Array.to_list (Demos.countdown 5))
    (Array.to_list (Asmtext.assemble source))

let test_asmtext_errors () =
  let bad source =
    match Asmtext.parse source with
    | exception Asim.Error.Error { phase = Asim.Error.Parsing; _ } -> ()
    | _ -> Alcotest.failf "expected parse error for %S" source
  in
  bad "frobnicate\n";
  bad "push\n";
  bad "push banana\n";
  bad "add 3\n";
  bad "bz 12..\n"

(* --- property: random straight-line programs vs a reference evaluator ------- *)

type sop =
  | SPush of int
  | SDupe
  | SSwap
  | SAdd
  | SMpy
  | SAnd
  | SLess
  | SEqual
  | SNeg
  | SNot

let sop_name = function
  | SPush v -> Printf.sprintf "push %d" v
  | SDupe -> "dupe"
  | SSwap -> "swap"
  | SAdd -> "add"
  | SMpy -> "mpy"
  | SAnd -> "and"
  | SLess -> "less"
  | SEqual -> "equal"
  | SNeg -> "neg"
  | SNot -> "not"

(* Reference stack semantics (top of stack = list head), as recovered from
   the microcode: binary operations compute [below OP top]. *)
let reference_eval ops =
  let step st op =
    match (op, st) with
    | SPush v, st -> v :: st
    | SDupe, a :: r -> a :: a :: r
    | SSwap, a :: b :: r -> b :: a :: r
    | SAdd, a :: b :: r -> (b + a) :: r
    | SMpy, a :: b :: r -> (b * a) :: r
    | SAnd, a :: b :: r -> (b land a) :: r
    (* comparisons push the all-ones truth value -1 (the microcode negates
       the ALU's 1), which the [NEG]-then-[BZ] branching idioms rely on *)
    | SLess, a :: b :: r -> (if b < a then -1 else 0) :: r
    | SEqual, a :: b :: r -> (if b = a then -1 else 0) :: r
    | SNeg, a :: r -> -a :: r
    | SNot, a :: r -> (Asim_core.Bits.mask - a) :: r
    | _ -> Alcotest.fail "generator produced an under-stacked program"
  in
  List.fold_left step [] ops

let items_of_sop = function
  | SPush v -> [ Asm.push v ]
  | SDupe -> [ Asm.op Isa.Dupe ]
  | SSwap -> [ Asm.op Isa.Swap ]
  | SAdd -> [ Asm.op Isa.Add ]
  | SMpy -> [ Asm.op Isa.Mpy ]
  | SAnd -> [ Asm.op Isa.And_ ]
  | SLess -> [ Asm.op Isa.Less ]
  | SEqual -> [ Asm.op Isa.Equal ]
  | SNeg -> [ Asm.op Isa.Neg ]
  | SNot -> [ Asm.op Isa.Not_ ]

let program_of_sops ops =
  let depth = List.length (reference_eval ops) in
  Asm.assemble
    (List.concat
       [
         [ Asm.op Isa.Nop ];
         Asm.enter_frame 2;
         List.concat_map items_of_sop ops;
         List.concat (List.init depth (fun _ -> Asm.output_top));
         [ Asm.label "halt"; Asm.jmp "halt" ];
       ])

let gen_sops =
  QCheck.Gen.(
    let unary = [ (fun _ -> SDupe); (fun _ -> SNeg); (fun _ -> SNot) ] in
    let binary =
      [ (fun _ -> SSwap); (fun _ -> SAdd); (fun _ -> SMpy); (fun _ -> SAnd);
        (fun _ -> SLess); (fun _ -> SEqual) ]
    in
    let rec build n depth acc =
      if n = 0 then return (List.rev acc)
      else
        let candidates =
          [ map (fun v -> SPush v) (int_bound 200) ]
          @ (if depth >= 1 then List.map (fun f -> map f unit) unary else [])
          @ if depth >= 2 then List.map (fun f -> map f unit) binary else []
        in
        oneof candidates >>= fun op ->
        let depth =
          match op with
          | SPush _ | SDupe -> depth + 1
          | SNeg | SNot | SSwap -> depth
          | SAdd | SMpy | SAnd | SLess | SEqual -> depth - 1
        in
        build (n - 1) depth (op :: acc)
    in
    int_range 1 12 >>= fun n -> build n 0 [])

let gen_isa_op =
  QCheck.Gen.(
    oneof
      [
        oneofl
          [ Isa.Ldz; Isa.Dupe; Isa.And_; Isa.Less; Isa.Equal; Isa.Not_; Isa.Neg;
            Isa.Add; Isa.Mpy; Isa.Ld; Isa.St; Isa.Bz; Isa.Glob; Isa.Nop;
            Isa.Swap; Isa.Index; Isa.Enter; Isa.Exit_; Isa.Call ];
        map (fun n -> Isa.Ld0 n) (int_bound 15);
        map (fun n -> Isa.Ld1 n) (int_bound 15);
        map (fun v -> Isa.Ldc v) (int_bound 0xFFFF);
      ])

let prop_isa_roundtrip =
  QCheck.Test.make ~name:"ISA encode/decode round-trips op streams" ~count:200
    (QCheck.make
       ~print:(fun ops -> String.concat "; " (List.map Isa.name ops))
       QCheck.Gen.(list_size (int_range 1 20) gen_isa_op))
    (fun ops ->
      let words = Array.of_list (List.concat_map Isa.encode ops) in
      let rec decode_all i acc =
        if i >= Array.length words then List.rev acc
        else
          match Isa.decode words i with
          | Some (op, next) -> decode_all next (op :: acc)
          | None -> List.rev acc
      in
      decode_all 0 [] = ops)

let prop_stack_programs =
  (* Three implementations must agree: the abstract reference model, the
     instruction-set-level simulator, and the microcoded RTL machine. *)
  let print ops = String.concat "; " (List.map sop_name ops) in
  QCheck.Test.make ~name:"random stack programs: model = ISP = RTL" ~count:60
    (QCheck.make ~print gen_sops)
    (fun ops ->
      let expected = reference_eval ops in
      let program = program_of_sops ops in
      let cycles = 400 + (150 * List.length ops) in
      let rtl = Programs.run_collect_outputs ~cycles program in
      let isp = Asim_stackm.Ispsim.run_collect_outputs program in
      if rtl = expected && isp = expected then true
      else
        QCheck.Test.fail_reportf
          "program [%s]:@.expected %s@.rtl      %s@.isp      %s" (print ops)
          (String.concat " " (List.map string_of_int expected))
          (String.concat " " (List.map string_of_int rtl))
          (String.concat " " (List.map string_of_int isp)))

(* --- the instruction-set level (ISP, paragraph 1.2 / 2.2.4) ------------------ *)

module Ispsim = Asim_stackm.Ispsim

let test_isp_sieve () =
  check_outputs "verbatim image at ISP level" primes
    (Ispsim.run_collect_outputs Programs.sieve);
  check_outputs "reassembled image at ISP level" primes
    (Ispsim.run_collect_outputs Demos.sieve_reassembled)

let test_isp_programs () =
  check_outputs "countdown" [ 4; 3; 2; 1 ] (Ispsim.run_collect_outputs (Demos.countdown 4));
  check_outputs "squares" [ 1; 4; 9 ] (Ispsim.run_collect_outputs (Demos.squares 3))

let test_isp_input () =
  let io, events = Asim.Io.recording ~feed:[ 5; 6; 0 ] () in
  let t = Ispsim.create ~io Demos.sum_of_inputs in
  ignore (Ispsim.run t);
  let outs =
    List.filter_map
      (function Asim.Io.Output { data; _ } -> Some data | _ -> None)
      (events ())
  in
  check_outputs "sum at ISP level" [ 11 ] outs

let test_isp_halt_detection () =
  let t = Ispsim.create (Demos.countdown 3) in
  let executed = Ispsim.run t in
  Alcotest.(check bool) "terminates well under the budget" true (executed < 1000)

let test_isp_speed_ratio () =
  (* One ISP instruction costs several RTL cycles — the §1.3 trade-off:
     instruction-set simulation provides no timing but runs much faster.
     The thesis's sieve: 5545 cycles; measure the instruction count. *)
  let t = Ispsim.create Programs.sieve in
  let instructions = Ispsim.run t in
  Alcotest.(check bool) "plausible instruction count" true
    (instructions > 500 && instructions < 5545);
  let ratio = float_of_int Programs.sieve_cycles /. float_of_int instructions in
  Alcotest.(check bool) "4-8 cycles per instruction" true (ratio > 4. && ratio < 8.)

(* The four ops the thesis never exercises, recovered by probing: both
   levels must agree on the resulting machine state. *)
let compare_op_levels label items ~cycles ~ram_window =
  let program = Asm.assemble items in
  let spec = Microcode.spec ~program () in
  let rtl =
    Asim.Compile.create ~config:Asim.Machine.quiet_config (Asim.Analysis.analyze spec)
  in
  (try Asim.Machine.run rtl ~cycles with Asim.Error.Error _ -> ());
  let isp = Ispsim.create program in
  ignore (Ispsim.run isp);
  Alcotest.(check int) (label ^ " sp") (rtl.Asim.Machine.read "sp") (Ispsim.sp isp);
  Alcotest.(check int) (label ^ " fp") (rtl.Asim.Machine.read "fp") (Ispsim.fp isp);
  for i = 0 to ram_window do
    Alcotest.(check int)
      (Printf.sprintf "%s ram[%d]" label i)
      (rtl.Asim.Machine.read_cell "ram" i)
      (Ispsim.peek isp i)
  done

let test_recovered_ops () =
  (* The probe programs simply run off the end of the ROM (both levels stop
     deterministically: the RTL traps on the program fetch, the ISP stops on
     an undecodable word), so sp/fp/ram afterwards are directly comparable. *)
  compare_op_levels "glob"
    ([ Asm.op Isa.Nop ] @ Asm.enter_frame 2 @ [ Asm.push 7; Asm.op Isa.Glob ])
    ~cycles:200 ~ram_window:8;
  compare_op_levels "index"
    ([ Asm.op Isa.Nop ] @ Asm.enter_frame 4
    @ [ Asm.push 9; Asm.push 2; Asm.op Isa.Index ])
    ~cycles:300 ~ram_window:10;
  compare_op_levels "exit"
    ([ Asm.op Isa.Nop ] @ Asm.enter_frame 2 @ [ Asm.op Isa.Exit_ ])
    ~cycles:200 ~ram_window:8;
  compare_op_levels "call"
    ([ Asm.op Isa.Nop ] @ Asm.enter_frame 2 @ [ Asm.push 20; Asm.op Isa.Call ])
    ~cycles:200 ~ram_window:8

let test_glob_absolute_addressing () =
  (* glob converts an absolute RAM address for LD: read ram[9] directly. *)
  let program =
    Asm.assemble
      (List.concat
         [
           [ Asm.op Isa.Nop ];
           Asm.enter_frame 2;
           [ Asm.push 9; Asm.op Isa.Glob; Asm.op Isa.Ld ];
           Asm.output_top;
           [ Asm.label "halt"; Asm.jmp "halt" ];
         ])
  in
  let spec = Microcode.spec ~program () in
  let analysis = Asim.Analysis.analyze spec in
  let io, events = Asim.Io.recording () in
  let m = Asim.Compile.create ~config:{ Asim.Machine.quiet_config with io } analysis in
  m.Asim.Machine.write_cell "ram" 9 777;
  Asim.Machine.run m ~cycles:300;
  let outs =
    List.filter_map
      (function Asim.Io.Output { data; _ } -> Some data | _ -> None)
      (events ())
  in
  Alcotest.(check (list int)) "absolute load" [ 777 ] outs

let test_isp_stack_inspection () =
  let t = Ispsim.create (Asm.assemble [ Asm.op Isa.Nop; Asm.push 3; Asm.push 5 ]) in
  ignore (Ispsim.run t);
  Alcotest.(check (list int)) "stack top-first" [ 5; 3 ] (Ispsim.stack t)

(* --- microarchitecture profiling --------------------------------------------- *)

module Sprofile = Asim_stackm.Profile

let test_profile_sieve () =
  let r =
    Sprofile.analyze ~cycles:Programs.sieve_cycles Programs.sieve
  in
  Alcotest.(check int) "cycles" Programs.sieve_cycles r.Sprofile.cycles;
  (* One dispatch per executed instruction; the ISP simulator counts the
     same work one abstraction level up (give or take the final partial
     instruction when the cycle budget expires). *)
  let isp = Asim_stackm.Ispsim.create Programs.sieve in
  let isp_count = Asim_stackm.Ispsim.run isp in
  Alcotest.(check bool) "dispatches ~= ISP instruction count" true
    (abs (r.Sprofile.instructions - isp_count) <= 2);
  let cpi = float_of_int r.Sprofile.cycles /. float_of_int r.Sprofile.instructions in
  Alcotest.(check bool) "CPI between 4 and 5" true (cpi > 4. && cpi < 5.);
  Alcotest.(check (option int)) "exactly one ENTER" (Some 1)
    (List.assoc_opt "enter" r.Sprofile.instruction_mix);
  Alcotest.(check bool) "fetch dominates" true
    (match r.Sprofile.label_occupancy with ("fetch", _) :: _ -> true | _ -> false);
  Alcotest.(check bool) "report renders" true
    (String.length (Sprofile.to_string r) > 100)

let test_profile_engines_agree () =
  let a = Sprofile.analyze ~engine:`Interp ~cycles:800 Programs.sieve in
  let b = Sprofile.analyze ~engine:`Compiled ~cycles:800 Programs.sieve in
  Alcotest.(check bool) "identical attribution" true (a = b)

let test_state_labels () =
  Alcotest.(check string) "fetch" "fetch" (Sprofile.state_label 0);
  Alcotest.(check string) "add entry" "add" (Sprofile.state_label 42);
  Alcotest.(check string) "enter entry" "enter" (Sprofile.state_label 52);
  Alcotest.(check string) "unused" "state-60" (Sprofile.state_label 60)

(* --- microcode structure ----------------------------------------------------- *)

let test_tables_shape () =
  Alcotest.(check int) "rom entries" 64 (Array.length Microcode.rom_table);
  Alcotest.(check int) "parm entries" 64 (Array.length Microcode.parm_table);
  Alcotest.(check int) "op entries" 16 (Array.length Microcode.op_table)

let test_spec_analyzes () =
  let spec = Microcode.spec ~program:Programs.sieve () in
  let analysis = Asim.Analysis.analyze spec in
  Alcotest.(check int) "components" 27
    (List.length analysis.Asim.Analysis.spec.Asim.Spec.components);
  Alcotest.(check int) "memories" 10 (Array.length analysis.Asim.Analysis.memories);
  (* no warnings: everything declared and defined *)
  Alcotest.(check int) "warnings" 0 (List.length analysis.Asim.Analysis.warnings)

let test_engines_agree_cycle_by_cycle () =
  let spec =
    Microcode.spec
      ~traced:[ "state"; "pc"; "sp"; "ir"; "alu" ]
      ~program:Programs.sieve ()
  in
  let analysis = Asim.Analysis.analyze spec in
  let run build =
    let buf = Buffer.create 65536 in
    let config = { Asim.Machine.quiet_config with trace = Asim.Trace.buffer_sink buf } in
    let m : Asim.Machine.t = build config analysis in
    Asim.Machine.run m ~cycles:1500;
    Buffer.contents buf
  in
  let interp = run (fun config a -> Asim.Interp.create ~config a) in
  let compiled = run (fun config a -> Asim.Compile.create ~config a) in
  Alcotest.(check bool) "1500-cycle traces identical" true (interp = compiled)

let () =
  Alcotest.run "stackm"
    [
      ( "sieve",
        [
          Alcotest.test_case "interpreter" `Quick test_sieve_interp;
          Alcotest.test_case "compiled" `Quick test_sieve_compiled;
          Alcotest.test_case "cycle budget" `Quick test_sieve_needs_all_cycles;
          Alcotest.test_case "reassembled source" `Quick test_sieve_reassembled;
        ] );
      ( "programs",
        [
          Alcotest.test_case "countdown" `Quick test_countdown;
          Alcotest.test_case "countdown n=1" `Quick test_countdown_one;
          Alcotest.test_case "squares" `Quick test_squares;
          Alcotest.test_case "fibonacci" `Quick test_fibonacci;
          Alcotest.test_case "gcd" `Quick test_gcd;
          Alcotest.test_case "gcd across levels" `Quick test_gcd_all_levels;
          Alcotest.test_case "sum of inputs" `Quick test_sum_of_inputs;
        ] );
      ( "isa",
        [
          Alcotest.test_case "encode/decode round-trip" `Quick test_encode_decode_roundtrip;
          Alcotest.test_case "sizes" `Quick test_encode_sizes;
          Alcotest.test_case "bounds" `Quick test_encode_bounds;
          Alcotest.test_case "disassemble sieve" `Quick test_disassemble_sieve;
        ] );
      ( "assembler",
        [
          Alcotest.test_case "forward and backward" `Quick test_assembler_forward_backward;
          Alcotest.test_case "duplicate label" `Quick test_assembler_duplicate_label;
          Alcotest.test_case "undefined label" `Quick test_assembler_undefined_label;
          Alcotest.test_case "long branch encoding" `Quick test_assembler_long_branch;
          Alcotest.test_case "long branch runs" `Quick test_long_branch_runs;
        ] );
      ( "asm text",
        [
          Alcotest.test_case "countdown from source" `Quick test_asmtext_countdown;
          Alcotest.test_case "matches combinators" `Quick test_asmtext_matches_builder;
          Alcotest.test_case "errors" `Quick test_asmtext_errors;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_isa_roundtrip; prop_stack_programs ] );
      ( "isp level",
        [
          Alcotest.test_case "sieve" `Quick test_isp_sieve;
          Alcotest.test_case "programs" `Quick test_isp_programs;
          Alcotest.test_case "input" `Quick test_isp_input;
          Alcotest.test_case "halt detection" `Quick test_isp_halt_detection;
          Alcotest.test_case "cycles per instruction" `Quick test_isp_speed_ratio;
          Alcotest.test_case "recovered ops match RTL" `Quick test_recovered_ops;
          Alcotest.test_case "glob absolute addressing" `Quick
            test_glob_absolute_addressing;
          Alcotest.test_case "stack inspection" `Quick test_isp_stack_inspection;
        ] );
      ( "profiling",
        [
          Alcotest.test_case "sieve profile" `Quick test_profile_sieve;
          Alcotest.test_case "engines agree" `Quick test_profile_engines_agree;
          Alcotest.test_case "state labels" `Quick test_state_labels;
        ] );
      ( "microcode",
        [
          Alcotest.test_case "table shapes" `Quick test_tables_shape;
          Alcotest.test_case "spec analyzes cleanly" `Quick test_spec_analyzes;
          Alcotest.test_case "engines agree cycle-by-cycle" `Quick
            test_engines_agree_cycle_by_cycle;
        ] );
    ]
