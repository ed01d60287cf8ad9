open Asim_core
open Asim_sim

(* ASIM "reads the specification into tables, and produces a simulation run
   by interpreting the symbols in the table" (§3.1).  Faithfully, then: the
   tables below hold each expression as its source *string*; every
   evaluation re-scans that string — classifying atoms, converting numbers
   ([str2num]), resolving component names by linear search through the
   symbol table ([findname] in Appendix C) — exactly the per-cycle work the
   ASIM II compiler eliminates.  This engine is the Figure 5.1 baseline. *)

type symbol = { sym_name : string; mutable value : int }

type memory_state = {
  m_name : string;
  m_slot : int;  (** spec-declaration-order slot, for profiling *)
  m_symbol : symbol;  (** registered output (the temporary) *)
  addr_s : string;
  data_s : string;
  op_s : string;
  cells : int array;
  mutable addr_snapshot : int;
  mutable op_snapshot : int;
}

type table_entry =
  | T_alu of { t_name : string; t_slot : int; t_symbol : symbol; fn_s : string; left_s : string; right_s : string }
  | T_selector of { t_name : string; t_slot : int; t_symbol : symbol; select_s : string; case_s : string array }

type state = {
  analysis : Asim_analysis.Analysis.t;
  config : Machine.config;
  stats : Stats.t;
  symbols : symbol list;  (** the name table; looked up linearly *)
  entries : table_entry list;  (** combinational, in dependency order *)
  memories : memory_state list;  (** in declaration order *)
  traced : string list;
  has_faults : bool;
  prof : Asim_prof.Prof.t option;
  mutable cycle : int;
}

(* --- the symbol interpreter ------------------------------------------------ *)

let find_symbol st name =
  let rec go = function
    | [] -> Error.failf Error.Runtime "Component <%s> not found." name
    | sym :: rest -> if String.equal sym.sym_name name then sym else go rest
  in
  go st.symbols

let read_value st name = (find_symbol st name).value


(* Evaluate one comma-separated piece placed at bit position [numbits];
   returns the contribution and the new position. *)
let eval_atom st piece numbits =
  let len = String.length piece in
  if len = 0 then Error.failf Error.Runtime "Malformed expression %s." piece
  else if piece.[0] = '#' then begin
    let v = ref 0 in
    for i = 1 to len - 1 do
      v := (!v * 2) + if piece.[i] = '1' then 1 else 0
    done;
    (!v lsl numbits, numbits + len - 1)
  end
  else if Number.is_number_start piece.[0] then begin
    match String.index_opt piece '.' with
    | None -> (Number.parse_value piece lsl numbits, Bits.word_bits)
    | Some dot ->
        let v = Number.parse_value (String.sub piece 0 dot) in
        let w = Number.parse_value (String.sub piece (dot + 1) (len - dot - 1)) in
        ((v land Bits.ones w) lsl numbits, numbits + w)
  end
  else begin
    let name_end =
      match String.index_opt piece '.' with Some i -> i | None -> len
    in
    let v = read_value st (String.sub piece 0 name_end) in
    if name_end = len then (v lsl numbits, Bits.word_bits)
    else
      let rest = String.sub piece (name_end + 1) (len - name_end - 1) in
      let lo, hi =
        match String.index_opt rest '.' with
        | None ->
            let f = Number.parse_value rest in
            (f, f)
        | Some dot ->
            ( Number.parse_value (String.sub rest 0 dot),
              Number.parse_value
                (String.sub rest (dot + 1) (String.length rest - dot - 1)) )
      in
      let masked = v land Bits.field_mask ~lo ~hi in
      let shifted =
        if numbits >= lo then masked lsl (numbits - lo) else masked lsr (lo - numbits)
      in
      (shifted, numbits + (hi - lo + 1))
  end

let eval_symbols st expr_s =
  let pieces = String.split_on_char ',' expr_s in
  let rec go acc numbits = function
    | [] -> acc
    | piece :: rest ->
        let v, numbits = eval_atom st piece numbits in
        go (acc + v) numbits rest
  in
  go 0 0 (List.rev pieces)

(* --- cycle execution --------------------------------------------------------- *)

let fault st slot name value =
  if st.has_faults then begin
    let v =
      Fault.apply st.config.Machine.faults ~cycle:st.cycle ~component:name value
    in
    (match st.prof with
    | Some p when v <> value ->
        p.Asim_prof.Prof.faults.(slot) <- p.Asim_prof.Prof.faults.(slot) + 1
    | _ -> ());
    v
  end
  else value

let count_eval st slot =
  match st.prof with
  | None -> ()
  | Some p -> p.Asim_prof.Prof.evals.(slot) <- p.Asim_prof.Prof.evals.(slot) + 1

let eval_entry st = function
  | T_alu { t_name; t_slot; t_symbol; fn_s; left_s; right_s } ->
      let v =
        Component.apply_alu_code (eval_symbols st fn_s)
          ~left:(eval_symbols st left_s) ~right:(eval_symbols st right_s)
      in
      count_eval st t_slot;
      t_symbol.value <- fault st t_slot t_name v
  | T_selector { t_name; t_slot; t_symbol; select_s; case_s } ->
      let index = eval_symbols st select_s in
      if index < 0 || index >= Array.length case_s then
        Machine.selector_out_of_range ~component:t_name ~cycle:st.cycle ~index
          ~cases:(Array.length case_s)
      else begin
        count_eval st t_slot;
        t_symbol.value <- fault st t_slot t_name (eval_symbols st case_s.(index))
      end

let update_memory st ms =
  let address = ms.addr_snapshot in
  let op = ms.op_snapshot in
  let check_address () =
    if address < 0 || address >= Array.length ms.cells then
      Machine.address_out_of_range ~component:ms.m_name ~cycle:st.cycle ~address
        ~cells:(Array.length ms.cells)
  in
  let kind = Component.memory_op_of_code op in
  (match kind with
  | Component.Op_read ->
      check_address ();
      ms.m_symbol.value <- ms.cells.(address)
  | Component.Op_write ->
      check_address ();
      (* Data is evaluated live, after earlier memories latched (§4.3). *)
      ms.m_symbol.value <- eval_symbols st ms.data_s;
      ms.cells.(address) <- ms.m_symbol.value
  | Component.Op_input -> ms.m_symbol.value <- st.config.Machine.io.Io.input ~address
  | Component.Op_output ->
      ms.m_symbol.value <- eval_symbols st ms.data_s;
      st.config.Machine.io.Io.output ~address ~data:ms.m_symbol.value);
  Stats.count_op st.stats ms.m_name kind;
  if Component.traces_writes op then
    st.config.Machine.trace
      (Trace.write_line ~memory:ms.m_name ~address ~data:ms.m_symbol.value);
  if Component.traces_reads op then
    st.config.Machine.trace
      (Trace.read_line ~memory:ms.m_name ~address ~data:ms.m_symbol.value);
  (* Faults perturb the registered output as seen from the next cycle on;
     the trace shows what the healthy cell transferred. *)
  ms.m_symbol.value <- fault st ms.m_slot ms.m_name ms.m_symbol.value

let step st () =
  (* 1. Combinational components in dependency order. *)
  List.iter (eval_entry st) st.entries;
  (* 2. Trace line: memories still show their pre-update temporaries. *)
  if st.traced <> [] || st.config.Machine.trace != Trace.null_sink then
    st.config.Machine.trace
      (Trace.cycle_line ~cycle:st.cycle
         (List.map (fun name -> (name, read_value st name)) st.traced));
  (* 3. Snapshot every memory's address and operation. *)
  List.iter
    (fun ms ->
      ms.addr_snapshot <- eval_symbols st ms.addr_s;
      ms.op_snapshot <- eval_symbols st ms.op_s)
    st.memories;
  (* 4. Latch memories in declaration order. *)
  List.iter (update_memory st) st.memories;
  (match st.prof with
  | None -> ()
  | Some p -> p.Asim_prof.Prof.cycles <- p.Asim_prof.Prof.cycles + 1);
  st.cycle <- st.cycle + 1;
  Stats.bump_cycle st.stats

(* --- construction ------------------------------------------------------------- *)

let create ?(config = Machine.default_config) ?prof
    (analysis : Asim_analysis.Analysis.t) =
  let module A = Asim_analysis.Analysis in
  let comps = analysis.A.comps in
  (* Slot = id = position in declaration order, the same layout every
     profiled engine indexes its counter arrays by.  The engine itself
     still finds every name it evaluates by linear search. *)
  let symbols = Array.map (fun (c : Component.t) -> { sym_name = c.name; value = 0 }) comps in
  let entries =
    Array.to_list analysis.A.order
    |> List.map (fun id ->
           let t_name = comps.(id).Component.name and t_symbol = symbols.(id) in
           match comps.(id).Component.kind with
           | Component.Alu { fn; left; right } ->
               T_alu
                 {
                   t_name;
                   t_slot = id;
                   t_symbol;
                   fn_s = Expr.to_string fn;
                   left_s = Expr.to_string left;
                   right_s = Expr.to_string right;
                 }
           | Component.Selector { select; cases } ->
               T_selector
                 {
                   t_name;
                   t_slot = id;
                   t_symbol;
                   select_s = Expr.to_string select;
                   case_s = Array.map Expr.to_string cases;
                 }
           | Component.Memory _ -> assert false)
  in
  let memories =
    Array.to_list analysis.A.memories
    |> List.map (fun id ->
           match comps.(id).Component.kind with
           | Component.Memory m ->
               {
                 m_name = comps.(id).Component.name;
                 m_slot = id;
                 m_symbol = symbols.(id);
                 addr_s = Expr.to_string m.addr;
                 data_s = Expr.to_string m.data;
                 op_s = Expr.to_string m.op;
                 cells =
                   (match m.init with
                   | Some values -> Array.copy values
                   | None -> Array.make m.cells 0);
                 addr_snapshot = 0;
                 op_snapshot = 0;
               }
           | Component.Alu _ | Component.Selector _ -> assert false)
  in
  let config =
    match prof with
    | None -> config
    | Some p ->
        { config with Machine.io = Asim_prof.Prof.instrument_io p config.Machine.io }
  in
  let st =
    {
      analysis;
      config;
      stats = Stats.create ~memories:(List.map (fun ms -> ms.m_name) memories);
      symbols = Array.to_list symbols;
      entries;
      memories;
      traced = Spec.traced_names analysis.A.spec;
      has_faults = config.Machine.faults <> [];
      prof;
      cycle = 0;
    }
  in
  (match prof with
  | None -> ()
  | Some p ->
      Asim_prof.Prof.attach_stats p st.stats;
      p.Asim_prof.Prof.engine <- "interpreter");
  let by_position = Array.of_list memories in
  let memory_by_name name = by_position.(A.memory analysis name) in
  let read_cell name index =
    let ms = memory_by_name name in
    if index < 0 || index >= Array.length ms.cells then
      invalid_arg "Interp: cell index out of range"
    else ms.cells.(index)
  in
  let write_cell name index value =
    let ms = memory_by_name name in
    if index < 0 || index >= Array.length ms.cells then
      invalid_arg "Interp: cell index out of range"
    else ms.cells.(index) <- value
  in
  {
    Machine.analysis;
    step = step st;
    read = (fun name -> symbols.(A.id analysis name).value);
    read_cell;
    write_cell;
    current_cycle = (fun () -> st.cycle);
    stats = st.stats;
  }

let of_spec ?config spec = create ?config (Asim_analysis.Analysis.analyze spec)
