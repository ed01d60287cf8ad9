open Asim_core
module Analysis = Asim_analysis.Analysis

type net = int

(* Every net has one driver.  [State] nets are written at the clock edge
   (flip-flop outputs, macro outputs) or by a combinational macro triggered
   during evaluation; everything else is a two-input gate or inverter
   evaluated in net-id order. *)
type driver =
  | Const of bool
  | And of net * net
  | Or of net * net
  | Xor of net * net
  | Not of net
  | State

type dff = { d : net; q : net }

type macro_kind =
  | M_memory of {
      mem_name : string;
      cells : int array;
      addr : net array;
      data : net array;
      op : net array;
      io : Asim_sim.Io.handler;
    }
  | M_alu of { fn : net array; left : net array; right : net array }

type macro = { m_kind : macro_kind; m_out : net array }

type realization =
  | R_gates of int  (** gate count used *)
  | R_register of int  (** flip-flop count *)
  | R_macro of string

type output = {
  o_name : string;
  o_nets : net array;
  o_memory : bool;
  mutable o_sample : int;
      (** combinational value sampled at the end of the evaluation phase —
          wire aliases of state nets would otherwise read post-clock *)
}

type t = {
  drivers : driver array;
  values : bool array;
  dffs : dff array;
  clocked_macros : macro array;  (** memory macros, in declaration order *)
  comb_triggers : (net, macro) Hashtbl.t;
      (** combinational ALU macros, run when evaluation reaches their first
          output net *)
  outputs : output list;
  realizations : (string * realization) list;
  mutable cycle : int;
}

type stats = {
  gate_count : int;
  dff_count : int;
  macro_count : int;
}

(* ------------------------------------------------------------------ *)
(* Builder                                                             *)
(* ------------------------------------------------------------------ *)

type builder = {
  mutable drv : driver array;
  mutable count : int;
  mutable b_dffs : dff list;
  mutable b_clocked : macro list;
  b_triggers : (net, macro) Hashtbl.t;
  mutable b_outputs : (string * net array) list;
  mutable b_real : (string * realization) list;
  mutable gates_in_flight : int;  (** gates emitted for the current component *)
  zero : net;
  one : net;
}

let add b driver =
  if b.count = Array.length b.drv then begin
    let bigger = Array.make (max 64 (2 * b.count)) State in
    Array.blit b.drv 0 bigger 0 b.count;
    b.drv <- bigger
  end;
  b.drv.(b.count) <- driver;
  b.count <- b.count + 1;
  b.count - 1

let new_builder () =
  let b =
    {
      drv = Array.make 1024 State;
      count = 0;
      b_dffs = [];
      b_clocked = [];
      b_triggers = Hashtbl.create 16;
      b_outputs = [];
      b_real = [];
      gates_in_flight = 0;
      zero = 0;
      one = 0;
    }
  in
  let zero = add b (Const false) in
  let one = add b (Const true) in
  { b with zero; one }

let is_const b n v =
  match b.drv.(n) with Const c -> c = v | _ -> false

let gate b make a c =
  b.gates_in_flight <- b.gates_in_flight + 1;
  add b (make a c)

(* Light constant folding keeps enabled-register muxes and padded adders
   from exploding into dead gates. *)
let g_and b a c =
  if is_const b a false || is_const b c false then b.zero
  else if is_const b a true then c
  else if is_const b c true then a
  else gate b (fun x y -> And (x, y)) a c

let g_or b a c =
  if is_const b a true || is_const b c true then b.one
  else if is_const b a false then c
  else if is_const b c false then a
  else gate b (fun x y -> Or (x, y)) a c

let g_xor b a c =
  if is_const b a false then c
  else if is_const b c false then a
  else if is_const b a true then gate b (fun x _ -> Not x) c b.zero
  else if is_const b c true then gate b (fun x _ -> Not x) a b.zero
  else gate b (fun x y -> Xor (x, y)) a c

let g_not b a =
  if is_const b a false then b.one
  else if is_const b a true then b.zero
  else gate b (fun x _ -> Not x) a b.zero

(* s ? hi : lo *)
let g_mux b s lo hi =
  if lo = hi then lo
  else if is_const b s false then lo
  else if is_const b s true then hi
  else g_or b (g_and b (g_not b s) lo) (g_and b s hi)

let vec_bit b v i = if i < Array.length v then v.(i) else b.zero

let const_vector b ~width value =
  Array.init width (fun i -> if (value lsr i) land 1 = 1 then b.one else b.zero)

let full_adder b a c cin =
  let axc = g_xor b a c in
  let s = g_xor b axc cin in
  let cout = g_or b (g_and b a c) (g_and b cin axc) in
  (s, cout)

let ripple_add b ~width x y ~cin =
  let out = Array.make width b.zero in
  let carry = ref cin in
  for i = 0 to width - 1 do
    let s, c = full_adder b (vec_bit b x i) (vec_bit b y i) !carry in
    out.(i) <- s;
    carry := c
  done;
  (out, !carry)

let bitwise b f ~width x y =
  Array.init width (fun i -> f b (vec_bit b x i) (vec_bit b y i))

let equality b x y =
  let width = max (Array.length x) (Array.length y) in
  let bits =
    List.init width (fun i -> g_not b (g_xor b (vec_bit b x i) (vec_bit b y i)))
  in
  match bits with
  | [] -> b.one
  | first :: rest -> List.fold_left (g_and b) first rest

(* Unsigned less-than via the borrow of x - y. *)
let less_than b x y =
  let width = max (Array.length x) (Array.length y) in
  let noty = Array.init width (fun i -> g_not b (vec_bit b y i)) in
  let _, carry = ripple_add b ~width x noty ~cin:b.one in
  g_not b carry

(* ------------------------------------------------------------------ *)
(* Expression lowering: an expression denotes a concatenation of nets. *)
(* ------------------------------------------------------------------ *)

let lookup_vector b name =
  match List.assoc_opt name b.b_outputs with
  | Some v -> v
  | None -> Error.failf Error.Analysis "Component <%s> not found." name

let atom_nets b = function
  | Expr.Const { number; width } ->
      let v = Number.value number in
      let w =
        match width with
        | Some w -> Number.value w
        | None -> Bits.width_needed v
      in
      const_vector b ~width:w (v land Bits.ones (min w Bits.word_bits))
  | Expr.Bitstring s ->
      let v = String.fold_left (fun acc c -> (acc * 2) + if c = '1' then 1 else 0) 0 s in
      const_vector b ~width:(String.length s) v
  | Expr.Ref { name; field } -> (
      let v = lookup_vector b name in
      match field with
      | Expr.Whole -> v
      | Expr.Bit f -> [| vec_bit b v (Number.value f) |]
      | Expr.Range (f, t) ->
          let lo = Number.value f and hi = Number.value t in
          Array.init (hi - lo + 1) (fun i -> vec_bit b v (lo + i)))

let expr_nets b e =
  (* Rightmost atom is least significant: concatenate LSB-first vectors. *)
  List.rev e
  |> List.map (atom_nets b)
  |> Array.concat

(* ------------------------------------------------------------------ *)
(* Components                                                          *)
(* ------------------------------------------------------------------ *)

let fit b ~width v = Array.init width (fun i -> vec_bit b v i)

let alu_nets b ~width (alu : Component.alu) =
  match Option.map Component.alu_function_of_code (Expr.const_value alu.fn) with
  | Some Component.Fn_zero | Some Component.Fn_unused ->
      Some (Array.make width b.zero)
  | Some Component.Fn_right -> Some (fit b ~width (expr_nets b alu.right))
  | Some Component.Fn_left -> Some (fit b ~width (expr_nets b alu.left))
  | Some Component.Fn_not ->
      let x = expr_nets b alu.left in
      Some (Array.init width (fun i -> g_not b (vec_bit b x i)))
  | Some Component.Fn_add ->
      let out, _ =
        ripple_add b ~width (expr_nets b alu.left) (expr_nets b alu.right) ~cin:b.zero
      in
      Some out
  | Some Component.Fn_sub ->
      let y = expr_nets b alu.right in
      let noty = Array.init width (fun i -> g_not b (vec_bit b y i)) in
      let out, _ = ripple_add b ~width (expr_nets b alu.left) noty ~cin:b.one in
      Some out
  | Some Component.Fn_and ->
      Some (bitwise b g_and ~width (expr_nets b alu.left) (expr_nets b alu.right))
  | Some Component.Fn_or ->
      Some (bitwise b g_or ~width (expr_nets b alu.left) (expr_nets b alu.right))
  | Some Component.Fn_xor ->
      Some (bitwise b g_xor ~width (expr_nets b alu.left) (expr_nets b alu.right))
  | Some Component.Fn_eq ->
      let e = equality b (expr_nets b alu.left) (expr_nets b alu.right) in
      Some (fit b ~width [| e |])
  | Some Component.Fn_lt ->
      let l = less_than b (expr_nets b alu.left) (expr_nets b alu.right) in
      Some (fit b ~width [| l |])
  | Some Component.Fn_mul | Some Component.Fn_shift_left | None -> None

let selector_nets b ~width (sel : Component.selector) =
  let select = expr_nets b sel.select in
  let cases = Array.map (fun case -> expr_nets b case) sel.cases in
  let n = Array.length cases in
  (* Per-bit multiplexor tree over just the select bits that distinguish the
     cases; any higher select bit forces zero (the RTL engines raise on an
     out-of-range select instead — such specs are outside gate-level
     equivalence). *)
  let needed =
    let rec go bits = if 1 lsl bits >= n then bits else go (bits + 1) in
    go 0
  in
  let rec mux_tree bit_index lo_case span level =
    if span = 1 then
      if lo_case < n then vec_bit b cases.(lo_case) bit_index else b.zero
    else
      let half = span / 2 in
      let lo = mux_tree bit_index lo_case half (level - 1) in
      let hi = mux_tree bit_index (lo_case + half) half (level - 1) in
      g_mux b (vec_bit b select (level - 1)) lo hi
  in
  let high_bits_clear =
    let rec go i acc =
      if i >= Array.length select then acc else go (i + 1) (g_or b acc select.(i))
    in
    g_not b (go needed b.zero)
  in
  Array.init width (fun i ->
      g_and b high_bits_clear (mux_tree i 0 (1 lsl needed) needed))

let memory_macro b ~io ~name (m : Component.memory) out =
  let addr = expr_nets b m.addr in
  let data = expr_nets b m.data in
  let op = expr_nets b m.op in
  let cells =
    match m.init with Some v -> Array.copy v | None -> Array.make m.cells 0
  in
  let macro =
    { m_kind = M_memory { mem_name = name; cells; addr; data; op; io }; m_out = out }
  in
  b.b_clocked <- macro :: b.b_clocked;
  macro

(* ------------------------------------------------------------------ *)
(* Linking                                                             *)
(* ------------------------------------------------------------------ *)

let of_analysis ?(io = Asim_sim.Io.null) (analysis : Analysis.t) =
  let widths = Analysis.widths analysis in
  let w_of id = max 1 (min Bits.word_bits widths.(id)) in
  let b = new_builder () in
  (* Pass 1: allocate every memory's registered output nets. *)
  let comps = analysis.Analysis.comps in
  let memories = Array.to_list analysis.Analysis.memories in
  List.iter
    (fun id ->
      let c = comps.(id) in
      let width = w_of id in
      let out = Array.init width (fun _ -> add b State) in
      b.b_outputs <- (c.name, out) :: b.b_outputs)
    memories;
  (* Pass 2: combinational components in dependency order. *)
  Array.iter
    (fun id ->
      let c = comps.(id) in
      b.gates_in_flight <- 0;
      let width = w_of id in
      match c.kind with
      | Component.Alu alu -> (
          match alu_nets b ~width alu with
          | Some out ->
              b.b_outputs <- (c.name, out) :: b.b_outputs;
              b.b_real <- (c.name, R_gates b.gates_in_flight) :: b.b_real
          | None ->
              (* behavioral fallback: computed function, multiply, shift *)
              let fn = expr_nets b alu.fn in
              let left = expr_nets b alu.left in
              let right = expr_nets b alu.right in
              let out = Array.init width (fun _ -> add b State) in
              let macro = { m_kind = M_alu { fn; left; right }; m_out = out } in
              Hashtbl.replace b.b_triggers out.(0) macro;
              b.b_outputs <- (c.name, out) :: b.b_outputs;
              b.b_real <- (c.name, R_macro "behavioral ALU") :: b.b_real)
      | Component.Selector sel ->
          let out = selector_nets b ~width sel in
          b.b_outputs <- (c.name, out) :: b.b_outputs;
          b.b_real <- (c.name, R_gates b.gates_in_flight) :: b.b_real
      | Component.Memory _ -> assert false)
    analysis.Analysis.order;
  (* Reject specs whose behaviour depends on sequential update order: all
     gate-level state clocks simultaneously. *)
  List.iter
    (function
      | Error.Memory_update_order { reader; written_before } ->
          Error.failf ~component:reader Error.Analysis
            "gate-level simulation clocks all state simultaneously; %s reading \
             %s (updated earlier) is not representable"
            reader written_before
      | _ -> ())
    analysis.Analysis.warnings;
  (* Pass 3: memory input cones and state elements, in declaration order. *)
  List.iter
    (fun id ->
      let c = comps.(id) in
      b.gates_in_flight <- 0;
      match c.kind with
      | Component.Memory m ->
          let width = w_of id in
          let out = lookup_vector b c.name in
          if
            m.cells = 1 && m.init = None
            && (match Expr.const_value m.op with
               | Some v -> v land 3 <= 1
               | None -> Expr.width m.op <= 1)
          then begin
            (* An enabled register bank: q <- op.0 ? data : q.  Reuse the
               pre-allocated output nets as the flip-flop outputs. *)
            let data = expr_nets b m.data in
            let op = expr_nets b m.op in
            let en = vec_bit b op 0 in
            Array.iteri
              (fun i q ->
                b.b_dffs <- { d = g_mux b en q (vec_bit b data i); q } :: b.b_dffs)
              out;
            b.b_real <- (c.name, R_register width) :: b.b_real
          end
          else begin
            ignore width;
            ignore (memory_macro b ~io ~name:c.name m out);
            b.b_real <- (c.name, R_macro "RAM/ROM") :: b.b_real
          end
      | Component.Alu _ | Component.Selector _ -> ())
    memories;
  let memory_names = List.map (fun id -> comps.(id).Component.name) memories in
  {
    drivers = Array.sub b.drv 0 b.count;
    values = Array.make b.count false;
    dffs = Array.of_list (List.rev b.b_dffs);
    clocked_macros = Array.of_list (List.rev b.b_clocked);
    comb_triggers = b.b_triggers;
    outputs =
      List.rev_map
        (fun (name, nets) ->
          { o_name = name; o_nets = nets; o_memory = List.mem name memory_names;
            o_sample = 0 })
        b.b_outputs;
    realizations = List.rev b.b_real;
    cycle = 0;
  }

(* ------------------------------------------------------------------ *)
(* Simulation                                                          *)
(* ------------------------------------------------------------------ *)

let vector_value t nets =
  Array.to_list nets
  |> List.mapi (fun i n -> if t.values.(n) then 1 lsl i else 0)
  |> List.fold_left ( + ) 0

let set_vector t nets v =
  Array.iteri (fun i n -> t.values.(n) <- (v lsr i) land 1 = 1) nets

let run_alu_macro t macro fn left right =
  let code = vector_value t fn in
  let l = vector_value t left and r = vector_value t right in
  let v = Component.apply_alu_code code ~left:l ~right:r in
  set_vector t macro.m_out v

let step t =
  (* Phase 1: combinational evaluation in net order. *)
  let values = t.values in
  for id = 0 to Array.length t.drivers - 1 do
    match t.drivers.(id) with
    | Const c -> values.(id) <- c
    | And (a, c) -> values.(id) <- values.(a) && values.(c)
    | Or (a, c) -> values.(id) <- values.(a) || values.(c)
    | Xor (a, c) -> values.(id) <- values.(a) <> values.(c)
    | Not a -> values.(id) <- not values.(a)
    | State -> (
        match Hashtbl.find_opt t.comb_triggers id with
        | Some ({ m_kind = M_alu { fn; left; right }; _ } as macro) ->
            run_alu_macro t macro fn left right
        | Some { m_kind = M_memory _; _ } | None -> ())
  done;
  (* Sample combinational outputs before the clock: the RTL engines report
     the values computed during the cycle. *)
  List.iter
    (fun o -> if not o.o_memory then o.o_sample <- vector_value t o.o_nets)
    t.outputs;
  (* Phase 2: clock edge.  Sample every state element's inputs first so the
     whole machine latches simultaneously, then commit. *)
  let next = Array.map (fun { d; _ } -> values.(d)) t.dffs in
  let macro_inputs =
    Array.map
      (fun macro ->
        match macro.m_kind with
        | M_alu _ -> (0, 0, 0)
        | M_memory { addr; data; op; _ } ->
            (vector_value t addr, vector_value t data, vector_value t op))
      t.clocked_macros
  in
  Array.iteri (fun i { q; _ } -> values.(q) <- next.(i)) t.dffs;
  Array.iteri
    (fun mi macro ->
      match macro.m_kind with
      | M_alu _ -> ()
      | M_memory { mem_name; cells; io; _ } -> (
          let address, datav, opv = macro_inputs.(mi) in
          let check () =
            if address < 0 || address >= Array.length cells then
              Asim_sim.Machine.address_out_of_range ~component:mem_name
                ~cycle:t.cycle ~address ~cells:(Array.length cells)
          in
          match Component.memory_op_of_code opv with
          | Component.Op_read ->
              check ();
              set_vector t macro.m_out cells.(address)
          | Component.Op_write ->
              check ();
              cells.(address) <- datav;
              set_vector t macro.m_out datav
          | Component.Op_input ->
              set_vector t macro.m_out (io.Asim_sim.Io.input ~address)
          | Component.Op_output ->
              io.Asim_sim.Io.output ~address ~data:datav;
              set_vector t macro.m_out datav))
    t.clocked_macros;
  t.cycle <- t.cycle + 1

let run t ~cycles =
  for _ = 1 to cycles do
    step t
  done

let find_output t name =
  match List.find_opt (fun o -> String.equal o.o_name name) t.outputs with
  | Some o -> o
  | None -> Error.failf Error.Runtime "Component <%s> not found." name

let read t name =
  let o = find_output t name in
  if o.o_memory then vector_value t o.o_nets else o.o_sample

let width t name = Array.length (find_output t name).o_nets

let stats t =
  let gate_count =
    Array.fold_left
      (fun acc d -> match d with And _ | Or _ | Xor _ | Not _ -> acc + 1 | _ -> acc)
      0 t.drivers
  in
  {
    gate_count;
    dff_count = Array.length t.dffs;
    macro_count = Array.length t.clocked_macros + Hashtbl.length t.comb_triggers;
  }

let describe t =
  t.realizations
  |> List.map (fun (name, r) ->
         match r with
         | R_gates n -> Printf.sprintf "%-14s %4d gates" name n
         | R_register w -> Printf.sprintf "%-14s %4d flip-flops" name w
         | R_macro what -> Printf.sprintf "%-14s macro (%s)" name what)
  |> String.concat "\n"
