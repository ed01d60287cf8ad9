open Asim_core
module Analysis = Asim_analysis.Analysis

let var is_memory name = (if is_memory name then "temp" else "ljb") ^ name

let term is_memory = function
  | Lower.Const c -> Printf.sprintf "%dLL" c
  | Lower.Field { name; mask; shift } ->
      let base =
        match mask with
        | None -> var is_memory name
        | Some m -> Printf.sprintf "(%s & %dLL)" (var is_memory name) m
      in
      if shift = 0 then base
      else if shift > 0 then Printf.sprintf "(%s << %d)" base shift
      else Printf.sprintf "(%s >> %d)" base (-shift)

let expr is_memory e =
  match Lower.lower e with
  | [ one ] -> term is_memory one
  | terms -> "(" ^ String.concat " + " (List.map (term is_memory) terms) ^ ")"

let expression ?(memories = []) e = expr (fun name -> List.mem name memories) e

let emit_prelude em =
  let l = Emitter.line em in
  l "#include <stdio.h>";
  l "#include <stdlib.h>";
  Emitter.blank em;
  Emitter.linef em "#define MASK %dLL" Bits.mask;
  Emitter.blank em;
  l "static long long dologic(long long funct, long long left, long long right) {";
  l "  switch (funct & 15) {";
  l "  case 0: return 0;";
  l "  case 1: return right;";
  l "  case 2: return left;";
  l "  case 3: return MASK - left;";
  l "  case 4: return left + right;";
  l "  case 5: return left - right;";
  l "  case 6: {";
  l "    long long v = left & MASK;";
  l "    long long n = right;";
  l "    while (n > 0 && v != 0) { v = (v + v) & MASK; n--; }";
  l "    return v;";
  l "  }";
  l "  case 7: return left * right;";
  l "  case 8: return left & right;";
  l "  case 9: return left + right - (left & right);";
  l "  case 10: return left + right - 2 * (left & right);";
  l "  case 12: return left == right ? 1 : 0;";
  l "  case 13: return left < right ? 1 : 0;";
  l "  default: return 0;";
  l "  }";
  l "}";
  Emitter.blank em;
  l "static long long sinput(long long address) {";
  l "  long long data = 0;";
  l "  if (address == 0) {";
  l "    int c = getchar();";
  l "    return c == EOF ? 0 : (long long)c;";
  l "  } else if (address == 1) {";
  l "    if (scanf(\"%lld\", &data) != 1) data = 0;";
  l "    return data;";
  l "  } else {";
  l "    printf(\"Input from address %lld: \", address);";
  l "    if (scanf(\"%lld\", &data) != 1) data = 0;";
  l "    return data;";
  l "  }";
  l "}";
  Emitter.blank em;
  l "static void soutput(long long address, long long data) {";
  l "  if (address == 0) putchar((int)(data & 255));";
  l "  else if (address == 1) printf(\"%lld\\n\", data);";
  l "  else printf(\"Output to address %lld: %lld\\n\", address, data);";
  l "}"

let emit_state em (a : Analysis.t) =
  List.iter
    (fun (name, (m : Component.memory), elide) ->
      Emitter.linef em "static long long mem%s[%d];" name m.cells;
      if elide then
        Emitter.linef em "static long long adr%s, opn%s;" name name
      else Emitter.linef em "static long long temp%s, adr%s, opn%s;" name name name)
    (Lower.memory_parts a);
  List.iter
    (fun (c : Component.t) -> Emitter.linef em "static long long ljb%s;" c.name)
    (Lower.order a);
  Emitter.blank em;
  Emitter.line em "static void initvalues(void) {";
  Emitter.indented em (fun () ->
      List.iter
        (fun (name, (m : Component.memory), _) ->
          match m.init with
          | None -> ()
          | Some values ->
              let values =
                values |> Array.to_list |> List.map string_of_int |> String.concat ", "
              in
              Emitter.linef em "static const long long init%s[%d] = { %s };" name
                m.cells values;
              Emitter.linef em "for (int i = 0; i < %d; i++) mem%s[i] = init%s[i];"
                m.cells name name)
        (Lower.memory_parts a));
  Emitter.line em "}"

let alu_assignment is_memory name (alu : Component.alu) =
  let e = expr is_memory in
  match Lower.alu_const_function alu with
  | Some Component.Fn_zero | Some Component.Fn_unused ->
      Printf.sprintf "ljb%s = 0;" name
  | Some Component.Fn_right -> Printf.sprintf "ljb%s = %s;" name (e alu.right)
  | Some Component.Fn_left -> Printf.sprintf "ljb%s = %s;" name (e alu.left)
  | Some Component.Fn_not -> Printf.sprintf "ljb%s = MASK - %s;" name (e alu.left)
  | Some Component.Fn_add ->
      Printf.sprintf "ljb%s = %s + %s;" name (e alu.left) (e alu.right)
  | Some Component.Fn_sub ->
      Printf.sprintf "ljb%s = %s - %s;" name (e alu.left) (e alu.right)
  | Some Component.Fn_shift_left ->
      Printf.sprintf "ljb%s = dologic(6, %s, %s);" name (e alu.left) (e alu.right)
  | Some Component.Fn_mul ->
      Printf.sprintf "ljb%s = %s * %s;" name (e alu.left) (e alu.right)
  | Some Component.Fn_and ->
      Printf.sprintf "ljb%s = %s & %s;" name (e alu.left) (e alu.right)
  | Some Component.Fn_or ->
      Printf.sprintf "ljb%s = %s + %s - (%s & %s);" name (e alu.left) (e alu.right)
        (e alu.left) (e alu.right)
  | Some Component.Fn_xor ->
      Printf.sprintf "ljb%s = %s + %s - 2 * (%s & %s);" name (e alu.left)
        (e alu.right) (e alu.left) (e alu.right)
  | Some Component.Fn_eq ->
      Printf.sprintf "ljb%s = (%s == %s) ? 1 : 0;" name (e alu.left) (e alu.right)
  | Some Component.Fn_lt ->
      Printf.sprintf "ljb%s = (%s < %s) ? 1 : 0;" name (e alu.left) (e alu.right)
  | None ->
      Printf.sprintf "ljb%s = dologic(%s, %s, %s);" name (e alu.fn) (e alu.left)
        (e alu.right)

let emit_selector em is_memory name (sel : Component.selector) =
  let e = expr is_memory in
  Emitter.linef em "switch (%s) {" (e sel.select);
  Array.iteri
    (fun i case -> Emitter.linef em "case %d: ljb%s = %s; break;" i name (e case))
    sel.cases;
  Emitter.linef em
    "default: fprintf(stderr, \"selector %s out of range\\n\"); exit(2);" name;
  Emitter.line em "}"

let emit_trace_line em (a : Analysis.t) is_memory =
  Emitter.line em "printf(\"Cycle %3lld\", cyclecount);";
  List.iter
    (fun name ->
      Emitter.linef em "printf(\" %s= %%lld\", %s);" name (var is_memory name))
    (Spec.traced_names a.Analysis.spec);
  Emitter.line em "printf(\"\\n\");"

let emit_memory_update em is_memory ~elide name (m : Component.memory) =
  let e = expr is_memory in
  let read () = Emitter.linef em "temp%s = mem%s[adr%s];" name name name in
  let write () =
    Emitter.linef em "temp%s = %s;" name (e m.data);
    Emitter.linef em "mem%s[adr%s] = temp%s;" name name name
  in
  let input () = Emitter.linef em "temp%s = sinput(adr%s);" name name in
  let output () =
    Emitter.linef em "temp%s = %s;" name (e m.data);
    Emitter.linef em "soutput(adr%s, temp%s);" name name
  in
  match Lower.memory_const_op m with
  | Some op when elide -> (
      match Component.memory_op_of_code op with
      | Component.Op_read -> Emitter.linef em "/* %s: read result unused, temp elided */" name
      | Component.Op_write -> Emitter.linef em "mem%s[adr%s] = %s;" name name (e m.data)
      | Component.Op_input | Component.Op_output -> assert false)
  | Some op -> (
      match Component.memory_op_of_code op with
      | Component.Op_read -> read ()
      | Component.Op_write -> write ()
      | Component.Op_input -> input ()
      | Component.Op_output -> output ())
  | None ->
      Emitter.linef em "switch (opn%s & 3) {" name;
      Emitter.line em "case 0:";
      Emitter.indented em (fun () ->
          read ();
          Emitter.line em "break;");
      Emitter.line em "case 1:";
      Emitter.indented em (fun () ->
          write ();
          Emitter.line em "break;");
      Emitter.line em "case 2:";
      Emitter.indented em (fun () ->
          input ();
          Emitter.line em "break;");
      Emitter.line em "default:";
      Emitter.indented em (fun () ->
          output ();
          Emitter.line em "break;");
      Emitter.line em "}"

let emit_memory_trace em name (m : Component.memory) =
  let write_fmt =
    Printf.sprintf "printf(\"Write to %s at %%lld: %%lld\\n\", adr%s, temp%s);" name
      name name
  in
  let read_fmt =
    Printf.sprintf "printf(\"Read from %s at %%lld: %%lld\\n\", adr%s, temp%s);" name
      name name
  in
  (match Analysis.write_trace_condition m with
  | Analysis.Trace_never -> ()
  | Analysis.Trace_always -> Emitter.line em write_fmt
  | Analysis.Trace_runtime ->
      Emitter.linef em "if ((opn%s & 5) == 5)" name;
      Emitter.line em ("  " ^ write_fmt));
  match Analysis.read_trace_condition m with
  | Analysis.Trace_never -> ()
  | Analysis.Trace_always -> Emitter.line em read_fmt
  | Analysis.Trace_runtime ->
      Emitter.linef em "if ((opn%s & 9) == 8)" name;
      Emitter.line em ("  " ^ read_fmt)

let generate (a : Analysis.t) =
  let spec = a.Analysis.spec in
  let is_memory = Lower.is_memory a in
  let em = Emitter.create () in
  Emitter.linef em "/* #%s */" spec.Spec.comment;
  Emitter.line em "/* generated by asim; do not edit */";
  Emitter.blank em;
  emit_prelude em;
  Emitter.blank em;
  emit_state em a;
  Emitter.blank em;
  Emitter.line em "int main(int argc, char **argv) {";
  Emitter.indented em (fun () ->
      Emitter.line em "initvalues();";
      Emitter.linef em "long long cycles = argc > 1 ? atoll(argv[1]) : %d;"
        (match spec.Spec.cycles with Some n -> n | None -> 0);
      Emitter.line em "for (long long cyclecount = 0; cyclecount < cycles; cyclecount++) {";
      Emitter.indented em (fun () ->
          List.iter
            (fun (c : Component.t) ->
              match c.kind with
              | Component.Alu alu -> Emitter.line em (alu_assignment is_memory c.name alu)
              | Component.Selector sel -> emit_selector em is_memory c.name sel
              | Component.Memory _ -> assert false)
            (Lower.order a);
          emit_trace_line em a is_memory;
          let mems = Lower.memory_parts a in
          List.iter
            (fun (name, (m : Component.memory), _) ->
              Emitter.linef em "adr%s = %s;" name (expr is_memory m.addr);
              match Lower.memory_const_op m with
              | Some _ -> ()
              | None -> Emitter.linef em "opn%s = %s;" name (expr is_memory m.op))
            mems;
          List.iter
            (fun (name, m, elide) ->
              emit_memory_update em is_memory ~elide name m;
              emit_memory_trace em name m)
            mems);
      Emitter.line em "}";
      Emitter.line em "return 0;");
  Emitter.line em "}";
  Emitter.contents em
