open Asim_core

let cap w = max 1 (min Bits.word_bits w)

(* The rules are compiled once per component: each expression becomes an
   [int array] holding the total of its fixed-width atoms, then the slots
   of its filling references, so the fixpoint below sweeps an [int array]
   of widths without touching a name. *)
type node =
  | Alu of { fn : Component.alu_function option; left : int array; right : int array }
  | Selector of int array array
  | Memory of { op : int option; op_width : int array; data : int array; from_init : int }

let rec count_refs = function
  | [] -> 0
  | Expr.Ref _ :: rest -> 1 + count_refs rest
  | _ :: rest -> count_refs rest

let resolve ~id c =
  let inputs = Component.inputs c in
  let slots = Array.make (List.fold_left (fun n e -> n + count_refs e) 0 inputs) 0 in
  let k = ref 0 in
  List.iter
    (List.iter (function
      | Expr.Ref { name; _ } ->
          slots.(!k) <- id name;
          incr k
      | _ -> ()))
    inputs;
  slots

(* [refs] are a component's reference slots, read left to right from
   [pos]; a negative slot (nothing defines the name) reads as [unknown]. *)
type cursor = { refs : int array; mutable pos : int; unknown : int }

let next cur =
  let k = cur.refs.(cur.pos) in
  cur.pos <- cur.pos + 1;
  if k < 0 then cur.unknown else k

let skip cur atoms = cur.pos <- cur.pos + count_refs atoms

let rec fixed_width = function
  | [] -> 0
  | atom :: rest -> (
      let w =
        match Expr.atom_width atom with
        | Some w -> max w 0
        | None -> (
            match atom with
            | Expr.Ref _ -> 0
            | Expr.Const { number; _ } -> Bits.width_needed (Number.value number)
            | Expr.Bitstring _ -> assert false)
      in
      w + fixed_width rest)

let rec count_fills = function
  | [] -> 0
  | Expr.Ref { field = Expr.Whole; _ } :: rest -> 1 + count_fills rest
  | _ :: rest -> count_fills rest

let rec fill_slots cur e k = function
  | [] -> ()
  | Expr.Ref { field; _ } :: rest ->
      let slot = next cur in
      if field = Expr.Whole then begin
        e.(k) <- slot;
        fill_slots cur e (k + 1) rest
      end
      else fill_slots cur e k rest
  | _ :: rest -> fill_slots cur e k rest

let compile_expr cur atoms =
  let e = Array.make (1 + count_fills atoms) (fixed_width atoms) in
  fill_slots cur e 1 atoms;
  e

(* Expressions are visited in [Component.inputs] order, so the cursor
   stays in step with [resolve]. *)
let compile cur (c : Component.t) =
  match c.kind with
  | Component.Alu { fn; left; right } ->
      skip cur fn;
      let left = compile_expr cur left in
      let right = compile_expr cur right in
      Alu
        {
          fn = Option.map Component.alu_function_of_code (Expr.const_value fn);
          left;
          right;
        }
  | Component.Selector { select; cases } ->
      skip cur select;
      Selector (Array.map (compile_expr cur) cases)
  | Component.Memory { addr; data; init; op; _ } ->
      skip cur addr;
      let data = compile_expr cur data in
      let op_const = Expr.const_value op in
      let from_init =
        match init with
        | None -> 1
        | Some values ->
            Array.fold_left (fun acc v -> max acc (Bits.width_needed (abs v))) 1 values
      in
      Memory { op = op_const; op_width = compile_expr cur op; data; from_init }

let eval_expr widths e =
  let w = ref (Array.unsafe_get e 0) in
  for i = 1 to Array.length e - 1 do
    w := !w + Array.unsafe_get widths (Array.unsafe_get e i)
  done;
  cap !w

let eval widths = function
  | Alu { fn; left; right } -> (
      let l = eval_expr widths left and r = eval_expr widths right in
      match fn with
      | None ->
          (* A runtime-selected function can be NOT (mask - left), which
             fills the whole word regardless of operand widths. *)
          Bits.word_bits
      | Some fn -> (
          match fn with
          | Component.Fn_zero | Component.Fn_unused -> 1
          | Component.Fn_right -> r
          | Component.Fn_left -> l
          | Component.Fn_not -> Bits.word_bits
          | Component.Fn_add -> cap (max l r + 1)
          | Component.Fn_sub -> Bits.word_bits (* may go negative *)
          | Component.Fn_shift_left -> Bits.word_bits
          | Component.Fn_mul -> cap (l + r)
          | Component.Fn_and -> min l r
          | Component.Fn_or | Component.Fn_xor -> max l r
          | Component.Fn_eq | Component.Fn_lt -> 1))
  | Selector cases ->
      Array.fold_left (fun acc case -> max acc (eval_expr widths case)) 1 cases
  | Memory { op; op_width; data; from_init } ->
      (* A memory that can perform input latches values of any width. *)
      let input_possible =
        match op with
        | Some v -> v land 3 = 2
        | None -> eval_expr widths op_width >= 2
      in
      if input_possible then Bits.word_bits else max (eval_expr widths data) from_init

type plan = node array

(* A component whose rule is not set yet reads as one bit. *)
let plan n = Array.make n (Selector [||])

let update plan i ~refs c =
  plan.(i) <- compile { refs; pos = 0; unknown = Array.length plan } c

let solve plan =
  let n = Array.length plan in
  let widths = Array.make (n + 1) 1 in
  widths.(n) <- Bits.word_bits;
  (* Start from the narrowest estimate and widen until stable, sweeping in
     component order and updating in place; widths are monotone in the
     environment and bounded by the word size, so the fixpoint is reached
     after at most [word_bits * n] sweeps (in practice: the longest
     reference chain). *)
  let fuel = ref ((Bits.word_bits * n) + 8) in
  let changed = ref true in
  while !changed && !fuel > 0 do
    changed := false;
    decr fuel;
    for i = 0 to n - 1 do
      let w = eval widths plan.(i) in
      if w <> widths.(i) then begin
        widths.(i) <- w;
        changed := true
      end
    done
  done;
  Array.sub widths 0 n

let infer comps refs =
  let p = plan (Array.length comps) in
  Array.iteri (fun i c -> update p i ~refs:refs.(i) c) comps;
  solve p

(* [compile_expr] then [eval_expr], without building the compiled form. *)
let expr_width widths next atoms =
  List.fold_left
    (fun w atom ->
      match atom with
      | Expr.Ref { field; _ } ->
          let k = next () in
          if field <> Expr.Whole then w
          else w + if k < 0 then Bits.word_bits else widths.(k)
      | _ -> w)
    (fixed_width atoms) atoms
  |> cap
