open Asim_core
module Analysis = Asim_analysis.Analysis
module Width = Asim_analysis.Width

(* Combinational outputs keep their spec names; a memory [m] contributes
   [m_q] (registered output), [m_mem] (cell array) and [m_addr]/[m_op]/
   [m_data] intermediate wires. *)

let atom_to_verilog is_memory atom =
  let base name = if is_memory name then name ^ "_q" else name in
  match atom with
  | Expr.Const { number; width } ->
      let v = Number.value number in
      let w =
        match width with Some w -> Number.value w | None -> Bits.width_needed v
      in
      Printf.sprintf "%d'd%d" w (v land Bits.ones (min w Bits.word_bits))
  | Expr.Bitstring s -> Printf.sprintf "%d'b%s" (String.length s) s
  | Expr.Ref { name; field } -> (
      match field with
      | Expr.Whole -> base name
      | Expr.Bit f -> Printf.sprintf "%s[%d]" (base name) (Number.value f)
      | Expr.Range (f, t) ->
          Printf.sprintf "%s[%d:%d]" (base name) (Number.value t) (Number.value f))

let expr is_memory e =
  match e with
  | [ atom ] -> atom_to_verilog is_memory atom
  | atoms ->
      "{" ^ String.concat ", " (List.map (atom_to_verilog is_memory) atoms) ^ "}"

let expression ?(memories = []) e = expr (fun name -> List.mem name memories) e

let mask_literal = Printf.sprintf "31'h%X" Bits.mask

let alu_rhs is_memory (alu : Component.alu) =
  let e = expr is_memory in
  match Lower.alu_const_function alu with
  | Some Component.Fn_zero | Some Component.Fn_unused -> "31'd0"
  | Some Component.Fn_right -> e alu.right
  | Some Component.Fn_left -> e alu.left
  | Some Component.Fn_not -> Printf.sprintf "%s - %s" mask_literal (e alu.left)
  | Some Component.Fn_add -> Printf.sprintf "%s + %s" (e alu.left) (e alu.right)
  | Some Component.Fn_sub -> Printf.sprintf "%s - %s" (e alu.left) (e alu.right)
  | Some Component.Fn_shift_left ->
      Printf.sprintf "%s << %s" (e alu.left) (e alu.right)
  | Some Component.Fn_mul -> Printf.sprintf "%s * %s" (e alu.left) (e alu.right)
  | Some Component.Fn_and -> Printf.sprintf "%s & %s" (e alu.left) (e alu.right)
  | Some Component.Fn_or -> Printf.sprintf "%s | %s" (e alu.left) (e alu.right)
  | Some Component.Fn_xor -> Printf.sprintf "%s ^ %s" (e alu.left) (e alu.right)
  | Some Component.Fn_eq ->
      Printf.sprintf "{30'd0, %s == %s}" (e alu.left) (e alu.right)
  | Some Component.Fn_lt ->
      Printf.sprintf "{30'd0, %s < %s}" (e alu.left) (e alu.right)
  | None ->
      Printf.sprintf "dologic(%s, %s, %s)" (e alu.fn) (e alu.left) (e alu.right)

let needs_dologic (a : Analysis.t) =
  List.exists
    (fun (c : Component.t) ->
      match c.kind with
      | Component.Alu alu -> Lower.alu_const_function alu = None
      | _ -> false)
    a.Analysis.spec.Spec.components

let emit_dologic em =
  let l = Emitter.line em in
  l "function [30:0] dologic(input [30:0] funct, input [30:0] left, input [30:0] right);";
  l "  begin";
  l "    case (funct[3:0])";
  l "      4'd0:  dologic = 31'd0;";
  l "      4'd1:  dologic = right;";
  l "      4'd2:  dologic = left;";
  Emitter.linef em "      4'd3:  dologic = %s - left;" mask_literal;
  l "      4'd4:  dologic = left + right;";
  l "      4'd5:  dologic = left - right;";
  l "      4'd6:  dologic = left << right;";
  l "      4'd7:  dologic = left * right;";
  l "      4'd8:  dologic = left & right;";
  l "      4'd9:  dologic = left | right;";
  l "      4'd10: dologic = left ^ right;";
  l "      4'd12: dologic = {30'd0, left == right};";
  l "      4'd13: dologic = {30'd0, left < right};";
  l "      default: dologic = 31'd0;";
  l "    endcase";
  l "  end";
  l "endfunction"

let generate (a : Analysis.t) =
  let spec = a.Analysis.spec in
  let is_memory = Lower.is_memory a in
  let e = expr is_memory in
  let em = Emitter.create () in
  let traced = Spec.traced_names spec in
  let io_memories =
    List.filter (fun (_, m, _) -> Analysis.memory_io_possible m) (Lower.memory_parts a)
  in
  Emitter.linef em "// #%s" spec.Spec.comment;
  Emitter.line em "// generated by asim; do not edit";
  Emitter.line em "`default_nettype none";
  Emitter.blank em;
  (* module header *)
  let ports =
    [ "input wire clk" ]
    @ List.concat_map
        (fun (name, _, _) ->
          [
            Printf.sprintf "input wire [30:0] %s_io_rdata" name;
            Printf.sprintf "output wire [30:0] %s_io_addr" name;
            Printf.sprintf "output wire [30:0] %s_io_wdata" name;
            Printf.sprintf "output wire %s_io_read" name;
            Printf.sprintf "output wire %s_io_write" name;
          ])
        io_memories
    @ List.map
        (fun name -> Printf.sprintf "output wire [30:0] %s_out" name)
        traced
  in
  Emitter.line em "module asim_machine (";
  List.iteri
    (fun i port ->
      Emitter.linef em "  %s%s" port
        (if i = List.length ports - 1 then "" else ","))
    ports;
  Emitter.line em ");";
  Emitter.blank em;
  if needs_dologic a then begin
    Emitter.indented em (fun () -> emit_dologic em);
    Emitter.blank em
  end;
  Emitter.indented em (fun () ->
      (* declarations *)
      List.iter
        (fun (c : Component.t) ->
          Emitter.linef em "reg [30:0] %s;" c.name)
        (Lower.order a);
      List.iter
        (fun (name, (m : Component.memory), _) ->
          Emitter.linef em "reg [30:0] %s_mem [0:%d];" name (m.cells - 1);
          Emitter.linef em "reg [30:0] %s_q;" name;
          Emitter.linef em "wire [30:0] %s_addr = %s;" name (e m.addr);
          Emitter.linef em "wire [30:0] %s_op = %s;" name (e m.op);
          Emitter.linef em "wire [30:0] %s_data = %s;" name (e m.data))
        (Lower.memory_parts a);
      Emitter.blank em;
      (* initialization *)
      Emitter.line em "integer i;";
      Emitter.line em "initial begin";
      Emitter.indented em (fun () ->
          List.iter
            (fun (name, (m : Component.memory), _) ->
              Emitter.linef em "%s_q = 31'd0;" name;
              match m.init with
              | None ->
                  Emitter.linef em "for (i = 0; i < %d; i = i + 1) %s_mem[i] = 31'd0;"
                    m.cells name
              | Some values ->
                  Array.iteri
                    (fun i v ->
                      Emitter.linef em "%s_mem[%d] = 31'd%d;" name i
                        (v land Bits.mask))
                    values)
            (Lower.memory_parts a));
      Emitter.line em "end";
      Emitter.blank em;
      (* combinational components, in dependency order *)
      Emitter.line em "always @* begin";
      Emitter.indented em (fun () ->
          List.iter
            (fun (c : Component.t) ->
              match c.kind with
              | Component.Alu alu ->
                  Emitter.linef em "%s = %s;" c.name (alu_rhs is_memory alu)
              | Component.Selector sel ->
                  Emitter.linef em "case (%s)" (e sel.Component.select);
                  Array.iteri
                    (fun i case ->
                      Emitter.linef em "  31'd%d: %s = %s;" i c.name (e case))
                    sel.Component.cases;
                  Emitter.linef em "  default: %s = 31'bx;" c.name;
                  Emitter.line em "endcase"
              | Component.Memory _ -> assert false)
            (Lower.order a));
      Emitter.line em "end";
      Emitter.blank em;
      (* state elements *)
      List.iter
        (fun (name, (m : Component.memory), _) ->
          let has_io = Analysis.memory_io_possible m in
          Emitter.linef em "always @(posedge clk) begin : update_%s" name;
          Emitter.indented em (fun () ->
              Emitter.linef em "case (%s_op[1:0])" name;
              Emitter.linef em "  2'd0: %s_q <= %s_mem[%s_addr];" name name name;
              Emitter.linef em
                "  2'd1: begin %s_q <= %s_data; %s_mem[%s_addr] <= %s_data; end"
                name name name name name;
              (if has_io then
                 Emitter.linef em "  2'd2: %s_q <= %s_io_rdata;" name name
               else Emitter.linef em "  2'd2: %s_q <= 31'd0; // unreachable" name);
              Emitter.linef em "  2'd3: %s_q <= %s_data;" name name;
              Emitter.line em "endcase");
          Emitter.line em "end")
        (Lower.memory_parts a);
      Emitter.blank em;
      (* I/O strobes *)
      List.iter
        (fun (name, _, _) ->
          Emitter.linef em "assign %s_io_addr = %s_addr;" name name;
          Emitter.linef em "assign %s_io_wdata = %s_data;" name name;
          Emitter.linef em "assign %s_io_read = (%s_op[1:0] == 2'd2);" name name;
          Emitter.linef em "assign %s_io_write = (%s_op[1:0] == 2'd3);" name name)
        io_memories;
      (* traced outputs *)
      List.iter
        (fun name ->
          let source = if is_memory name then name ^ "_q" else name in
          Emitter.linef em "assign %s_out = %s;" name source)
        traced);
  Emitter.line em "endmodule";
  Emitter.line em "`default_nettype wire";
  Emitter.contents em
