open Asim_core

type trace_condition =
  | Trace_never
  | Trace_always
  | Trace_runtime

type t = {
  spec : Spec.t;
  comps : Component.t array;
  ids : int Spec.Names.t;
  refs : int array array;
  order : int array;
  memories : int array;
  warnings : Error.warning list;
}

(* Every name resolves once, through the table [Spec.index] builds while it
   validates: [refs.(i)] holds component [i]'s references as ids (see
   [Width.resolve]), negative where nothing defines the name.  Reference
   checks, ordering and the warnings below all read these, and so does
   every pass, engine and report downstream. *)

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
  let ids = Spec.index spec in
  let comps = Array.of_list spec.Spec.components in
  let id name = Option.value (Spec.Names.find_opt ids name) ~default:(-1) in
  let refs = Array.map (Width.resolve ~id) comps in
  check_references comps refs;
  let order = Depgraph.order comps refs in
  let memories =
    List.init (Array.length comps) Fun.id
    |> List.filter (fun i -> Component.is_memory comps.(i))
    |> Array.of_list
  in
  let warnings = declaration_warnings spec ids comps @ update_order_warnings ids comps in
  { spec; comps; ids; refs; order; memories; warnings }

let id t name =
  match Spec.Names.find_opt t.ids name with
  | Some i -> i
  | None -> Error.failf Error.Runtime "Component <%s> not found." name

(* [memories] is ascending (declaration order is id order), so a memory's
   position is a binary search away. *)
let memory t name =
  let i = Option.value (Spec.Names.find_opt t.ids name) ~default:(-1) in
  let rec search lo hi =
    if lo >= hi then Error.failf Error.Runtime "Component <%s> is not a memory." name
    else
      let mid = (lo + hi) / 2 in
      let m = t.memories.(mid) in
      if m = i then mid else if m < i then search (mid + 1) hi else search lo mid
  in
  search 0 (Array.length t.memories)

let names t ids = Array.fold_right (fun i acc -> t.comps.(i).Component.name :: acc) ids []

let reader refs =
  let k = ref 0 in
  fun () ->
    let id = refs.(!k) in
    incr k;
    id

let widths t = Width.infer t.comps t.refs

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
  let widths = widths t in
  (* The select and address expressions are the first input of their
     component, so their references lead the component's list. *)
  let width i e = Width.expr_width widths (reader t.refs.(i)) e in
  List.filter_map Fun.id
    (List.mapi
       (fun i (c : Component.t) ->
         match c.kind with
         | Component.Alu _ -> None
         | Component.Selector { select; cases } -> (
             let n = Array.length cases in
             match Expr.const_value select with
             | Some v when v >= 0 && v < n -> None
             | _ ->
                 let w = width i select in
                 if w < Bits.word_bits && 1 lsl w <= n then None
                 else
                   Some
                     (Selector_possible_overrun
                        { selector = c.name; cases = n; select_width = w }))
         | Component.Memory { addr; cells; _ } -> (
             match Expr.const_value addr with
             | Some v when v >= 0 && v < cells -> None
             | _ ->
                 let w = width i addr in
                 if w < Bits.word_bits && 1 lsl w <= cells then None
                 else
                   Some
                     (Address_possible_overrun
                        { memory = c.name; cells; addr_width = w })))
       t.spec.Spec.components)

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

let memory_output_used t =
  let read = Array.make (Array.length t.comps) false in
  Array.iter (Array.iter (fun j -> if j >= 0 then read.(j) <- true)) t.refs;
  List.iter
    (fun name -> Option.iter (fun j -> read.(j) <- true) (Spec.Names.find_opt t.ids name))
    (Spec.traced_names t.spec);
  fun i ->
    read.(i)
    ||
    (* read/write trace lines print the temporary *)
    match t.comps.(i).Component.kind with
    | Component.Memory m ->
        write_trace_condition m <> Trace_never || read_trace_condition m <> Trace_never
    | Component.Alu _ | Component.Selector _ -> false

let memory_io_possible (m : Component.memory) =
  match Expr.const_value m.op with
  | Some v -> v land 3 >= 2
  | None ->
      (* a single-bit operation can only read or write *)
      Expr.width m.op >= 2
