open Asim_core
module Analysis = Asim_analysis.Analysis

(* Combinational values and memory registers are [int ref]s named [ljb<name>]
   and [temp<name>]; memory cell arrays are [mem<name>]. *)
let var is_memory name = "!" ^ (if is_memory name then "temp" else "ljb") ^ name

let term is_memory = function
  | Lower.Const c -> string_of_int c
  | Lower.Field { name; mask; shift } ->
      let base =
        match mask with
        | None -> var is_memory name
        | Some m -> Printf.sprintf "(%s land %d)" (var is_memory name) m
      in
      if shift = 0 then base
      else if shift > 0 then Printf.sprintf "(%s lsl %d)" base shift
      else Printf.sprintf "(%s lsr %d)" base (-shift)

let expr is_memory e =
  match Lower.lower e with
  | [ one ] -> term is_memory one
  | terms -> "(" ^ String.concat " + " (List.map (term is_memory) terms) ^ ")"

let expression ?(memories = []) e = expr (fun name -> List.mem name memories) e

let emit_prelude em =
  let l = Emitter.line em in
  Emitter.linef em "let mask = %d" Bits.mask;
  Emitter.blank em;
  l "let dologic funct left right =";
  l "  match funct land 15 with";
  l "  | 0 -> 0";
  l "  | 1 -> right";
  l "  | 2 -> left";
  l "  | 3 -> mask - left";
  l "  | 4 -> left + right";
  l "  | 5 -> left - right";
  l "  | 6 ->";
  l "      let rec go v n = if n <= 0 || v = 0 then v else go ((v + v) land mask) (n - 1) in";
  l "      go (left land mask) right";
  l "  | 7 -> left * right";
  l "  | 8 -> left land right";
  l "  | 9 -> left + right - (left land right)";
  l "  | 10 -> left + right - (2 * (left land right))";
  l "  | 12 -> if left = right then 1 else 0";
  l "  | 13 -> if left < right then 1 else 0";
  l "  | _ -> 0";
  Emitter.blank em;
  l "let sinput address =";
  l "  match address with";
  l "  | 0 -> (try Char.code (input_char stdin) with End_of_file -> 0)";
  l "  | 1 -> (try Scanf.scanf \" %d\" (fun d -> d) with Scanf.Scan_failure _ | End_of_file -> 0)";
  l "  | _ ->";
  l "      Printf.printf \"Input from address %d: \" address;";
  l "      (try Scanf.scanf \" %d\" (fun d -> d) with Scanf.Scan_failure _ | End_of_file -> 0)";
  Emitter.blank em;
  l "let soutput address data =";
  l "  match address with";
  l "  | 0 -> print_char (Char.chr (data land 255))";
  l "  | 1 -> Printf.printf \"%d\\n\" data";
  l "  | _ -> Printf.printf \"Output to address %d: %d\\n\" address data"

let emit_state em (a : Analysis.t) =
  List.iter
    (fun (name, (m : Component.memory), elide) ->
      Emitter.linef em "let mem%s = Array.make %d 0" name m.cells;
      if not elide then
        Emitter.linef em "let temp%s = ref 0" name;
      Emitter.linef em "let adr%s = ref 0" name;
      Emitter.linef em "let opn%s = ref 0" name)
    (Lower.memory_parts a);
  List.iter
    (fun (c : Component.t) -> Emitter.linef em "let ljb%s = ref 0" c.name)
    (Lower.order a);
  Emitter.blank em;
  Emitter.line em "let initvalues () =";
  Emitter.indented em (fun () ->
      let any = ref false in
      List.iter
        (fun (name, (m : Component.memory), _) ->
          match m.init with
          | None -> ()
          | Some values ->
              any := true;
              let values =
                values |> Array.to_list |> List.map string_of_int |> String.concat "; "
              in
              Emitter.linef em "List.iteri (fun i v -> mem%s.(i) <- v) [ %s ];" name
                values)
        (Lower.memory_parts a);
      if not !any then Emitter.line em "();";
      Emitter.line em "()")

let alu_assignment is_memory name (alu : Component.alu) =
  let e = expr is_memory in
  match Lower.alu_const_function alu with
  | Some Component.Fn_zero | Some Component.Fn_unused ->
      Printf.sprintf "ljb%s := 0;" name
  | Some Component.Fn_right -> Printf.sprintf "ljb%s := %s;" name (e alu.right)
  | Some Component.Fn_left -> Printf.sprintf "ljb%s := %s;" name (e alu.left)
  | Some Component.Fn_not ->
      Printf.sprintf "ljb%s := %d - %s;" name Bits.mask (e alu.left)
  | Some Component.Fn_add ->
      Printf.sprintf "ljb%s := %s + %s;" name (e alu.left) (e alu.right)
  | Some Component.Fn_sub ->
      Printf.sprintf "ljb%s := %s - %s;" name (e alu.left) (e alu.right)
  | Some Component.Fn_shift_left ->
      Printf.sprintf "ljb%s := dologic 6 %s %s;" name (e alu.left) (e alu.right)
  | Some Component.Fn_mul ->
      Printf.sprintf "ljb%s := %s * %s;" name (e alu.left) (e alu.right)
  | Some Component.Fn_and ->
      Printf.sprintf "ljb%s := %s land %s;" name (e alu.left) (e alu.right)
  | Some Component.Fn_or ->
      Printf.sprintf "ljb%s := (let a = %s and b = %s in a + b - (a land b));" name
        (e alu.left) (e alu.right)
  | Some Component.Fn_xor ->
      Printf.sprintf "ljb%s := (let a = %s and b = %s in a + b - (2 * (a land b)));"
        name (e alu.left) (e alu.right)
  | Some Component.Fn_eq ->
      Printf.sprintf "ljb%s := (if %s = %s then 1 else 0);" name (e alu.left)
        (e alu.right)
  | Some Component.Fn_lt ->
      Printf.sprintf "ljb%s := (if %s < %s then 1 else 0);" name (e alu.left)
        (e alu.right)
  | None ->
      Printf.sprintf "ljb%s := dologic %s %s %s;" name (e alu.fn) (e alu.left)
        (e alu.right)

let emit_selector em is_memory name (sel : Component.selector) =
  let e = expr is_memory in
  Emitter.linef em "(match %s with" (e sel.select);
  Array.iteri
    (fun i case -> Emitter.linef em " | %d -> ljb%s := %s" i name (e case))
    sel.cases;
  Emitter.linef em
    " | i -> failwith (Printf.sprintf \"selector %s: value %%d exceeds the number of sources (%d)\" i));"
    name (Array.length sel.cases)

let emit_trace_line em (a : Analysis.t) is_memory =
  Emitter.line em "print_string (Printf.sprintf \"Cycle %3d\" cyclecount);";
  List.iter
    (fun name ->
      Emitter.linef em "print_string (Printf.sprintf \" %s= %%d\" %s);" name
        (var is_memory name))
    (Spec.traced_names a.Analysis.spec);
  Emitter.line em "print_newline ();"

let emit_memory_update em is_memory ~elide name (m : Component.memory) =
  let e = expr is_memory in
  let read () = Emitter.linef em "temp%s := mem%s.(!adr%s);" name name name in
  let write () =
    Emitter.linef em "temp%s := %s;" name (e m.data);
    Emitter.linef em "mem%s.(!adr%s) <- !temp%s;" name name name
  in
  let input () = Emitter.linef em "temp%s := sinput !adr%s;" name name in
  let output () =
    Emitter.linef em "temp%s := %s;" name (e m.data);
    Emitter.linef em "soutput !adr%s !temp%s;" name name
  in
  match Lower.memory_const_op m with
  | Some op when elide -> (
      match Component.memory_op_of_code op with
      | Component.Op_read -> Emitter.linef em "(* %s: read result unused, temp elided *)" name
      | Component.Op_write -> Emitter.linef em "mem%s.(!adr%s) <- %s;" name name (e m.data)
      | Component.Op_input | Component.Op_output -> assert false)
  | Some op -> (
      match Component.memory_op_of_code op with
      | Component.Op_read -> read ()
      | Component.Op_write -> write ()
      | Component.Op_input -> input ()
      | Component.Op_output -> output ())
  | None ->
      Emitter.linef em "(match !opn%s land 3 with" name;
      Emitter.indented em (fun () ->
          Emitter.line em "| 0 ->";
          Emitter.indented em (fun () -> read ());
          Emitter.line em "| 1 ->";
          Emitter.indented em (fun () -> write ());
          Emitter.line em "| 2 ->";
          Emitter.indented em (fun () -> input ());
          Emitter.line em "| _ ->";
          Emitter.indented em (fun () -> output ()));
      Emitter.line em ");"

let emit_memory_trace em name (m : Component.memory) =
  let write_fmt =
    Printf.sprintf
      "print_string (Printf.sprintf \"Write to %s at %%d: %%d\\n\" !adr%s !temp%s);"
      name name name
  in
  let read_fmt =
    Printf.sprintf
      "print_string (Printf.sprintf \"Read from %s at %%d: %%d\\n\" !adr%s !temp%s);"
      name name name
  in
  (match Analysis.write_trace_condition m with
  | Analysis.Trace_never -> ()
  | Analysis.Trace_always -> Emitter.line em write_fmt
  | Analysis.Trace_runtime ->
      Emitter.linef em "if !opn%s land 5 = 5 then" name;
      Emitter.line em ("  " ^ write_fmt));
  match Analysis.read_trace_condition m with
  | Analysis.Trace_never -> ()
  | Analysis.Trace_always -> Emitter.line em read_fmt
  | Analysis.Trace_runtime ->
      Emitter.linef em "if !opn%s land 9 = 8 then" name;
      Emitter.line em ("  " ^ read_fmt)

let generate (a : Analysis.t) =
  let spec = a.Analysis.spec in
  let is_memory = Lower.is_memory a in
  let em = Emitter.create () in
  Emitter.linef em "(* #%s *)" spec.Spec.comment;
  Emitter.linef em "(* generated by asim; do not edit *)";
  Emitter.blank em;
  emit_prelude em;
  Emitter.blank em;
  emit_state em a;
  Emitter.blank em;
  Emitter.line em "let () =";
  Emitter.indented em (fun () ->
      Emitter.line em "initvalues ();";
      Emitter.linef em
        "let cycles = if Array.length Sys.argv > 1 then int_of_string Sys.argv.(1) else %d in"
        (match spec.Spec.cycles with Some n -> n | None -> 0);
      Emitter.line em "for cyclecount = 0 to cycles - 1 do";
      Emitter.indented em (fun () ->
          Emitter.line em "ignore cyclecount;";
          List.iter
            (fun (c : Component.t) ->
              match c.kind with
              | Component.Alu alu ->
                  Emitter.line em (alu_assignment is_memory c.name alu)
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
            mems);
      Emitter.line em "done");
  Emitter.contents em
