open Asim_core
module Analysis = Asim_analysis.Analysis

let var is_memory name = (if is_memory name then "temp" else "ljb") ^ name

let term is_memory = function
  | Lower.Const c -> string_of_int c
  | Lower.Field { name; mask; shift } ->
      let base =
        match mask with
        | None -> var is_memory name
        | Some m -> Printf.sprintf "land(%s, %d)" (var is_memory name) m
      in
      if shift = 0 then base
      else if shift > 0 then Printf.sprintf "%s * %d" base (1 lsl shift)
      else Printf.sprintf "%s div %d" base (1 lsl -shift)

let expr is_memory e = String.concat " + " (List.map (term is_memory) (Lower.lower e))

let expression ?(memories = []) e = expr (fun name -> List.mem name memories) e

(* --- fixed support routines (Appendix C/E shapes) ----------------------- *)

let emit_land em =
  let l = Emitter.line em in
  l "function land (a, b: integer): integer;";
  l "type bitnos = 0..31;";
  l "  bigset = set of bitnos;";
  l "var intset: record case boolean of";
  l "  false: (i, j: integer);";
  l "  true: (x, y: bigset)";
  l "end;";
  l "begin";
  l "  with intset do begin";
  l "    i := a;";
  l "    j := b;";
  l "    x := x * y;";
  l "    land := i";
  l "  end";
  l "end {land};"

let emit_dologic em =
  let l = Emitter.line em in
  l "function dologic (funct, left, right: integer): integer;";
  Emitter.linef em "const mask = %d;" Bits.mask;
  l "var value : integer;";
  l "begin";
  l "  value := 0;";
  l "  case funct of";
  l "  0 : value := 0;";
  l "  1 : value := right;";
  l "  2 : value := left;";
  l "  3 : value := mask - left;";
  l "  4 : value := left + right;";
  l "  5 : value := left - right;";
  l "  6 : begin";
  l "        value := land(left, mask);";
  l "        while (right > 0) and (value <> 0) do begin";
  l "          value := land(value + value, mask);";
  l "          right := right - 1";
  l "        end";
  l "      end;";
  l "  7 : value := left * right;";
  l "  8 : value := land(left, right);";
  l "  9 : value := left + right - land(left, right);";
  l "  10: value := left + right - land(left, right) * 2;";
  l "  11: value := 0;";
  l "  12: if left = right then value := 1;";
  l "  13: if left < right then value := 1";
  l "  end; {case}";
  l "  dologic := value;";
  l "end; {dologic}"

let emit_io em =
  let l = Emitter.line em in
  l "function sinput (address : integer): integer;";
  l "var datum: char;";
  l "  data: integer;";
  l "begin";
  l "  if address = 0 then begin";
  l "    read(input, datum);";
  l "    sinput := ord(datum)";
  l "  end";
  l "  else if address = 1 then begin";
  l "    read(input, data);";
  l "    sinput := data";
  l "  end";
  l "  else begin";
  l "    write(output, 'Input from address ', address:1, ': ');";
  l "    readln(input, data);";
  l "    sinput := data;";
  l "  end";
  l "end; {sinput}";
  Emitter.blank em;
  l "procedure soutput (address, data: integer);";
  l "begin";
  l "  if address = 0 then writeln(output, chr(data))";
  l "  else if address = 1 then writeln(output, data)";
  l "  else writeln(output, 'Output to address ', address:1, ': ', data:1)";
  l "end; {soutput}"

(* --- per-spec sections --------------------------------------------------- *)

let emit_vars em (a : Analysis.t) =
  let comb_names =
    List.map (fun (c : Component.t) -> "ljb" ^ c.name) (Lower.order a)
  in
  let mem_names =
    List.concat_map
      (fun (name, _, elide) ->
        (* §5.4 heuristic: no temporary for never-read outputs *)
        if elide then [ "adr" ^ name; "opn" ^ name ]
        else [ "temp" ^ name; "adr" ^ name; "opn" ^ name ])
      (Lower.memory_parts a)
  in
  (match comb_names @ mem_names with
  | [] -> ()
  | names -> Emitter.linef em "var %s: integer;" (String.concat ", " names));
  Emitter.line em "  cycles, cyclecount: integer;";
  List.iter
    (fun (name, (m : Component.memory), _) ->
      Emitter.linef em "  ljb%s: array[0..%d] of integer;" name (m.cells - 1))
    (Lower.memory_parts a)

let emit_initvalues em (a : Analysis.t) =
  let l = Emitter.line em in
  l "procedure initvalues;";
  l "var i: integer;";
  l "begin";
  Emitter.indented em (fun () ->
      List.iter
        (fun (name, (m : Component.memory), elide) ->
          (match m.init with
          | Some values ->
              Array.iteri
                (fun i v -> Emitter.linef em "ljb%s[%d] := %d;" name i v)
                values
          | None ->
              Emitter.linef em "for i := 0 to %d do" (m.cells - 1);
              Emitter.linef em "  ljb%s[i] := 0;" name);
          if not elide then
            Emitter.linef em "temp%s := 0;" name)
        (Lower.memory_parts a));
  l "end; {initvalues}"

let alu_assignment is_memory name (alu : Component.alu) =
  let e = expr is_memory in
  let target = "ljb" ^ name in
  match Lower.alu_const_function alu with
  | Some Component.Fn_zero | Some Component.Fn_unused ->
      [ Printf.sprintf "%s := 0;" target ]
  | Some Component.Fn_right -> [ Printf.sprintf "%s := %s;" target (e alu.right) ]
  | Some Component.Fn_left -> [ Printf.sprintf "%s := %s;" target (e alu.left) ]
  | Some Component.Fn_not ->
      [ Printf.sprintf "%s := %d - %s;" target Bits.mask (e alu.left) ]
  | Some Component.Fn_add ->
      [ Printf.sprintf "%s := %s + %s;" target (e alu.left) (e alu.right) ]
  | Some Component.Fn_sub ->
      [ Printf.sprintf "%s := %s - %s;" target (e alu.left) (e alu.right) ]
  | Some Component.Fn_shift_left ->
      [ Printf.sprintf "%s := dologic(6, %s, %s);" target (e alu.left) (e alu.right) ]
  | Some Component.Fn_mul ->
      [ Printf.sprintf "%s := %s * %s;" target (e alu.left) (e alu.right) ]
  | Some Component.Fn_and ->
      [ Printf.sprintf "%s := land(%s, %s);" target (e alu.left) (e alu.right) ]
  | Some Component.Fn_or ->
      [ Printf.sprintf "%s := %s + %s - land(%s, %s);" target (e alu.left)
          (e alu.right) (e alu.left) (e alu.right) ]
  | Some Component.Fn_xor ->
      [ Printf.sprintf "%s := %s + %s - land(%s, %s) * 2;" target (e alu.left)
          (e alu.right) (e alu.left) (e alu.right) ]
  | Some Component.Fn_eq ->
      [ Printf.sprintf "if %s = %s then %s := 1" (e alu.left) (e alu.right) target;
        Printf.sprintf "else %s := 0;" target ]
  | Some Component.Fn_lt ->
      [ Printf.sprintf "if %s < %s then %s := 1" (e alu.left) (e alu.right) target;
        Printf.sprintf "else %s := 0;" target ]
  | None ->
      [ Printf.sprintf "%s := dologic(%s, %s, %s);" target (e alu.fn) (e alu.left)
          (e alu.right) ]

let emit_selector em is_memory name (sel : Component.selector) =
  let e = expr is_memory in
  Emitter.linef em "case %s of" (e sel.select);
  Array.iteri
    (fun i case -> Emitter.linef em "  %d: ljb%s := %s;" i name (e case))
    sel.cases;
  Emitter.line em "end;"

let emit_trace_line em (a : Analysis.t) is_memory =
  Emitter.line em "write('Cycle ', cyclecount:3);";
  List.iter
    (fun name ->
      Emitter.linef em "write(' %s= ', %s:1);" name (var is_memory name))
    (Spec.traced_names a.Analysis.spec);
  Emitter.line em "writeln;"

let emit_memory_update em is_memory ~elide name (m : Component.memory) =
  let e = expr is_memory in
  let read () =
    Emitter.linef em "temp%s := ljb%s[adr%s];" name name name
  in
  let write () =
    Emitter.linef em "temp%s := %s;" name (e m.data);
    Emitter.linef em "ljb%s[adr%s] := temp%s;" name name name
  in
  let input () = Emitter.linef em "temp%s := sinput(adr%s);" name name in
  let output () =
    Emitter.linef em "temp%s := %s;" name (e m.data);
    Emitter.linef em "soutput(adr%s, temp%s);" name name
  in
  match Lower.memory_const_op m with
  | Some op when elide -> (
      (* §5.4: the output is never read, so the temporary disappears. *)
      match Component.memory_op_of_code op with
      | Component.Op_read ->
          Emitter.linef em "{ %s: read result unused, temp elided }" name
      | Component.Op_write ->
          Emitter.linef em "ljb%s[adr%s] := %s;" name name (e m.data)
      | Component.Op_input | Component.Op_output -> assert false)
  | Some op -> (
      (* §4.4: constant operation, the case structure is eliminated. *)
      match Component.memory_op_of_code op with
      | Component.Op_read -> read ()
      | Component.Op_write -> write ()
      | Component.Op_input -> input ()
      | Component.Op_output -> output ())
  | None ->
      Emitter.linef em "case land(opn%s, 3) of" name;
      Emitter.indented em (fun () ->
          Emitter.line em "0: begin";
          Emitter.indented em (fun () -> read ());
          Emitter.line em "end;";
          Emitter.line em "1: begin";
          Emitter.indented em (fun () -> write ());
          Emitter.line em "end;";
          Emitter.line em "2: begin";
          Emitter.indented em (fun () -> input ());
          Emitter.line em "end;";
          Emitter.line em "3: begin";
          Emitter.indented em (fun () -> output ());
          Emitter.line em "end");
      Emitter.line em "end; {case}"

let emit_memory_trace em name (m : Component.memory) =
  let write_fmt =
    Printf.sprintf "writeln('Write to %s at ', adr%s:1, ': ', temp%s:1);" name name name
  in
  let read_fmt =
    Printf.sprintf "writeln('Read from %s at ', adr%s:1, ': ', temp%s:1);" name name name
  in
  (match Analysis.write_trace_condition m with
  | Analysis.Trace_never -> ()
  | Analysis.Trace_always -> Emitter.line em write_fmt
  | Analysis.Trace_runtime ->
      Emitter.linef em "if land(opn%s, 5) = 5 then" name;
      Emitter.line em ("  " ^ write_fmt));
  match Analysis.read_trace_condition m with
  | Analysis.Trace_never -> ()
  | Analysis.Trace_always -> Emitter.line em read_fmt
  | Analysis.Trace_runtime ->
      Emitter.linef em "if land(opn%s, 9) = 8 then" name;
      Emitter.line em ("  " ^ read_fmt)

let generate (a : Analysis.t) =
  let spec = a.Analysis.spec in
  let is_memory = Lower.is_memory a in
  let em = Emitter.create () in
  Emitter.line em "program simulator(input, output);";
  Emitter.linef em "{#%s}" spec.Spec.comment;
  emit_vars em a;
  Emitter.blank em;
  emit_land em;
  Emitter.blank em;
  emit_initvalues em a;
  Emitter.blank em;
  emit_dologic em;
  Emitter.blank em;
  emit_io em;
  Emitter.blank em;
  Emitter.line em "begin";
  Emitter.indented em (fun () ->
      Emitter.line em "initvalues;";
      Emitter.linef em "cycles := %d;"
        (match spec.Spec.cycles with Some n -> n | None -> 0);
      Emitter.line em "cyclecount := 0;";
      Emitter.line em "while cyclecount < cycles do begin";
      Emitter.indented em (fun () ->
          List.iter
            (fun (c : Component.t) ->
              match c.kind with
              | Component.Alu alu ->
                  List.iter (Emitter.line em) (alu_assignment is_memory c.name alu)
              | Component.Selector sel -> emit_selector em is_memory c.name sel
              | Component.Memory _ -> assert false)
            (Lower.order a);
          emit_trace_line em a is_memory;
          let mems = Lower.memory_parts a in
          List.iter
            (fun (name, (m : Component.memory), _) ->
              Emitter.linef em "adr%s := %s;" name (expr is_memory m.addr);
              match Lower.memory_const_op m with
              | Some _ -> ()
              | None -> Emitter.linef em "opn%s := %s;" name (expr is_memory m.op))
            mems;
          List.iter
            (fun (name, m, elide) ->
              emit_memory_update em is_memory ~elide name m;
              emit_memory_trace em name m)
            mems;
          Emitter.line em "cyclecount := cyclecount + 1");
      Emitter.line em "end; {while}");
  Emitter.line em "end.";
  Emitter.contents em
