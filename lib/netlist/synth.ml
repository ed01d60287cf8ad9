open Asim_core
module Analysis = Asim_analysis.Analysis
module Width = Asim_analysis.Width

type instance = {
  component : string;
  width : int;
  parts : (Parts.t * int) list;
  role : string;
}

type wire = {
  from_component : string;
  bits : string;
  to_component : string;
  to_port : string;
}

type t = {
  instances : instance list;
  wires : wire list;
  bom : (Parts.t * int) list;
}

let ceil_div a b = (a + b - 1) / b

(* Registers are built from D flip-flop packages, largest first. *)
let flip_flops width =
  let hex = width / 6 in
  let rem = width mod 6 in
  let quad = rem / 4 in
  let rem = rem mod 4 in
  let dual = ceil_div rem 2 in
  List.filter
    (fun (_, n) -> n > 0)
    [
      (Parts.Hex_d_flip_flop, hex);
      (Parts.Quad_d_flip_flop, quad);
      (Parts.Dual_d_flip_flop, dual);
    ]

let next_pow2 n =
  let rec go p = if p >= n then p else go (p * 2) in
  go 1

let ram_parts ~rom ~cells width =
  let words = max 16 (next_pow2 cells) in
  let chips = ceil_div width 8 in
  if rom then [ (Parts.Rom { words; bits = 8 }, chips) ]
  else [ (Parts.Ram { words; bits = 8 }, chips) ]

let mux_parts ~cases width =
  if cases <= 1 then []
  else if cases <= 2 then [ (Parts.Quad_mux_2to1, ceil_div width 4) ]
  else if cases <= 4 then [ (Parts.Dual_mux_4to1, ceil_div width 2) ]
  else
    (* First level: one 8-to-1 per bit per group of 8 inputs; further levels
       recombine group outputs.  The thesis machine never needs more than two
       levels (64 cases). *)
    let groups = ceil_div cases 8 in
    let first = width * groups in
    let second =
      if groups <= 1 then []
      else if groups <= 2 then [ (Parts.Quad_mux_2to1, ceil_div width 4) ]
      else if groups <= 4 then [ (Parts.Dual_mux_4to1, ceil_div width 2) ]
      else [ (Parts.Mux_8to1, width) ]
    in
    (Parts.Mux_8to1, first) :: second

let const_function (alu : Component.alu) =
  Option.map Component.alu_function_of_code (Expr.const_value alu.fn)

(* [next] hands out the ALU's reference ids in [Component.inputs] order; a
   constant function has none, so the left operand's come first. *)
let alu_parts widths next (alu : Component.alu) width =
  match const_function alu with
  | Some Component.Fn_add | Some Component.Fn_sub ->
      ([ (Parts.Adder_4bit, ceil_div width 4) ], "adder")
  | Some Component.Fn_eq | Some Component.Fn_lt ->
      let l = Width.expr_width widths next alu.left in
      let w = max l (Width.expr_width widths next alu.right) in
      ([ (Parts.Comparator_4bit, ceil_div w 4) ], "comparator")
  | Some Component.Fn_and -> ([ (Parts.Quad_and, ceil_div width 4) ], "AND gates")
  | Some Component.Fn_or -> ([ (Parts.Quad_or, ceil_div width 4) ], "OR gates")
  | Some Component.Fn_xor -> ([ (Parts.Quad_xor, ceil_div width 4) ], "XOR gates")
  | Some Component.Fn_not -> ([ (Parts.Hex_inverter, ceil_div width 6) ], "inverters")
  | Some Component.Fn_left | Some Component.Fn_right ->
      ([], "wiring (pass-through)")
  | Some Component.Fn_zero | Some Component.Fn_unused -> ([], "grounded output")
  | Some Component.Fn_shift_left | Some Component.Fn_mul | None ->
      ([ (Parts.Alu_4bit, ceil_div width 4) ], "general ALU")

let instance_of (a : Analysis.t) widths id =
  let c = a.Analysis.comps.(id) in
  let width = widths.(id) in
  match c.kind with
  | Component.Alu alu ->
      let parts, role = alu_parts widths (Analysis.reader a.Analysis.refs.(id)) alu width in
      { component = c.name; width; parts; role }
  | Component.Selector { cases; _ } ->
      {
        component = c.name;
        width;
        parts = mux_parts ~cases:(Array.length cases) width;
        role = "data selector/multiplexor";
      }
  | Component.Memory { cells; init; op; _ } ->
      if cells = 1 then
        { component = c.name; width; parts = flip_flops width; role = "register" }
      else
        let can_write =
          match Expr.const_value op with
          | Some v -> v land 3 = 1
          | None -> true
        in
        let rom = init <> None && not can_write in
        {
          component = c.name;
          width;
          parts = ram_parts ~rom ~cells width;
          role = (if rom then "ROM" else "RAM");
        }

let field_bits = function
  | Expr.Whole -> "[all]"
  | Expr.Bit f -> Printf.sprintf "[%d]" (Number.value f)
  | Expr.Range (f, t) -> Printf.sprintf "[%d..%d]" (Number.value f) (Number.value t)

let wires_of (c : Component.t) =
  let of_expr port e =
    List.filter_map
      (function
        | Expr.Const _ | Expr.Bitstring _ -> None
        | Expr.Ref { name; field } ->
            Some
              {
                from_component = name;
                bits = field_bits field;
                to_component = c.name;
                to_port = port;
              })
      e
  in
  match c.kind with
  | Component.Alu { fn; left; right } ->
      of_expr "function" fn @ of_expr "left" left @ of_expr "right" right
  | Component.Selector { select; cases } ->
      of_expr "select" select
      @ List.concat
          (Array.to_list
             (Array.mapi (fun i case -> of_expr (Printf.sprintf "case %d" i) case) cases))
  | Component.Memory { addr; data; op; _ } ->
      of_expr "address" addr @ of_expr "data" data @ of_expr "operation" op

let aggregate instances =
  let add acc (part, n) =
    let current = try List.assoc part acc with Not_found -> 0 in
    (part, current + n) :: List.remove_assoc part acc
  in
  List.fold_left (fun acc inst -> List.fold_left add acc inst.parts) [] instances
  |> List.sort (fun (a, _) (b, _) -> Parts.compare a b)

let synthesize (a : Analysis.t) =
  let widths = Analysis.widths a in
  let instances = List.init (Array.length a.Analysis.comps) (instance_of a widths) in
  let wires = List.concat_map wires_of a.Analysis.spec.Spec.components in
  { instances; wires; bom = aggregate instances }

let bom_to_string t =
  t.bom
  |> List.map (fun (part, n) -> Printf.sprintf "%3d  %s" n (Parts.name part))
  |> String.concat "\n"

let wiring_to_string t =
  t.wires
  |> List.map (fun w ->
         Printf.sprintf "%-12s %-10s -> %s.%s" w.from_component w.bits w.to_component
           w.to_port)
  |> String.concat "\n"

let instances_to_string t =
  t.instances
  |> List.map (fun i ->
         let parts =
           match i.parts with
           | [] -> "(no parts: " ^ i.role ^ ")"
           | parts ->
               parts
               |> List.map (fun (p, n) -> Printf.sprintf "%dx %s" n (Parts.name p))
               |> String.concat ", "
         in
         Printf.sprintf "%-12s %2d bits  %-24s %s" i.component i.width i.role parts)
  |> String.concat "\n"

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph asim {\n  rankdir=LR;\n  node [shape=box];\n";
  List.iter
    (fun i ->
      Buffer.add_string buf
        (Printf.sprintf "  %s [label=\"%s\\n%s (%d bits)\"];\n" i.component
           i.component i.role i.width))
    t.instances;
  List.iter
    (fun w ->
      Buffer.add_string buf
        (Printf.sprintf "  %s -> %s [label=\"%s %s\"];\n" w.from_component
           w.to_component w.bits w.to_port))
    t.wires;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
