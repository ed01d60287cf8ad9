open Asim_core

type trace_condition =
  | Trace_never
  | Trace_always
  | Trace_runtime

type t = {
  spec : Spec.t;
  order : Component.t list;
  memories : Component.t list;
  warnings : Error.warning list;
}

(* Every name resolves once, through the table [Spec.index] builds while it
   validates: [refs.(i)] holds component [i]'s references as indices (see
   [Width.resolve]), negative where nothing defines the name.  Reference
   checks, ordering and the warnings below all read these. *)

(* The [k]-th reference of a component, left to right across its inputs. *)
let nth_ref (c : Component.t) k =
  let names =
    List.concat_map
      (List.filter_map (function Expr.Ref { name; _ } -> Some name | _ -> None))
      (Component.inputs c)
  in
  List.nth names k

let check_references comps refs =
  Array.iteri
    (fun i (c : Component.t) ->
      Array.iteri
        (fun k slot ->
          if slot < 0 then
            Error.failf ~component:c.name Error.Analysis "Component <%s> not found."
              (nth_ref c k))
        refs.(i))
    comps

let declaration_warnings (spec : Spec.t) index comps =
  let declared = Array.make (Array.length comps) false in
  let not_defined =
    List.filter_map
      (fun (d : Spec.decl) ->
        match Spec.Names.find_opt index d.name with
        | Some i ->
            declared.(i) <- true;
            None
        | None -> Some (Error.Declared_not_defined d.name))
      spec.decls
  in
  let not_declared =
    List.filteri (fun i _ -> not declared.(i)) spec.components
    |> List.map (fun (c : Component.t) -> Error.Defined_not_declared c.name)
  in
  not_defined @ not_declared

(* A memory's data expression is evaluated while earlier-declared memories
   have already latched their new values (§4.3's temporaries are updated in
   declaration order).  Reading such a memory sees this cycle's value, not
   last cycle's — legal, but almost always a surprise. *)
let update_order_warnings index comps =
  let warnings = ref [] in
  Array.iteri
    (fun i (c : Component.t) ->
      match c.kind with
      | Component.Memory { data; _ } ->
          List.iter
            (fun name ->
              let k = Spec.Names.find index name in
              if k < i && Component.is_memory comps.(k) then
                warnings :=
                  Error.Memory_update_order { reader = c.name; written_before = name }
                  :: !warnings)
            (Expr.names data)
      | Component.Alu _ | Component.Selector _ -> ())
    comps;
  List.rev !warnings

let analyze spec =
  let index = Spec.index spec in
  let comps = Array.of_list spec.Spec.components in
  let id name = Option.value (Spec.Names.find_opt index name) ~default:(-1) in
  let refs = Array.map (Width.resolve ~id) comps in
  check_references comps refs;
  let order = Depgraph.order comps refs in
  let memories = List.filter Component.is_memory spec.Spec.components in
  let warnings = declaration_warnings spec index comps @ update_order_warnings index comps in
  { spec; order; memories; warnings }

let trace_condition ~const_test ~min_width (m : Component.memory) =
  match Expr.const_value m.op with
  | Some v -> if const_test v then Trace_always else Trace_never
  | None -> if Expr.width m.op >= min_width then Trace_runtime else Trace_never

let write_trace_condition m =
  trace_condition ~const_test:(fun v -> Component.traces_writes v) ~min_width:3 m

let read_trace_condition m =
  trace_condition ~const_test:(fun v -> Component.traces_reads v) ~min_width:4 m

type lint =
  | Selector_possible_overrun of { selector : string; cases : int; select_width : int }
  | Address_possible_overrun of { memory : string; cells : int; addr_width : int }

let lints t =
  let env = Width.infer t.spec in
  List.filter_map
    (fun (c : Component.t) ->
      match c.kind with
      | Component.Alu _ -> None
      | Component.Selector { select; cases } -> (
          let n = Array.length cases in
          match Expr.const_value select with
          | Some v when v >= 0 && v < n -> None
          | _ ->
              let w = Width.expr_width env select in
              if w < Bits.word_bits && 1 lsl w <= n then None
              else
                Some
                  (Selector_possible_overrun
                     { selector = c.name; cases = n; select_width = w }))
      | Component.Memory { addr; cells; _ } -> (
          match Expr.const_value addr with
          | Some v when v >= 0 && v < cells -> None
          | _ ->
              let w = Width.expr_width env addr in
              if w < Bits.word_bits && 1 lsl w <= cells then None
              else
                Some
                  (Address_possible_overrun
                     { memory = c.name; cells; addr_width = w })))
    t.spec.Spec.components

let lint_to_string = function
  | Selector_possible_overrun { selector; cases; select_width } ->
      Printf.sprintf
        "Lint: selector %s has %d values but its select expression is %d bits \
         wide; out-of-range values are a runtime error."
        selector cases select_width
  | Address_possible_overrun { memory; cells; addr_width } ->
      Printf.sprintf
        "Lint: memory %s has %d cells but its address expression is %d bits \
         wide; out-of-range addresses are a runtime error."
        memory cells addr_width

let memory_output_used t name =
  List.mem name (Spec.traced_names t.spec)
  || List.exists
       (fun (c : Component.t) ->
         List.exists (fun e -> List.mem name (Expr.names e)) (Component.inputs c))
       t.spec.Spec.components
  ||
  (* read/write trace lines print the temporary *)
  match Spec.find t.spec name with
  | Some { Component.kind = Component.Memory m; _ } ->
      write_trace_condition m <> Trace_never || read_trace_condition m <> Trace_never
  | Some _ | None -> false

let memory_io_possible (m : Component.memory) =
  match Expr.const_value m.op with
  | Some v -> v land 3 >= 2
  | None ->
      (* a single-bit operation can only read or write *)
      Expr.width m.op >= 2
