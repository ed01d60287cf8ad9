open Asim_core

type term =
  | Const of int
  | Field of { name : string; mask : int option; shift : int }

let lower (e : Expr.t) =
  let constant = ref 0 in
  let fields = ref [] in
  let place numbits atom =
    match atom with
    | Expr.Const { number; width } -> (
        let v = Number.value number in
        match width with
        | None ->
            constant := !constant + (v lsl numbits);
            Bits.word_bits
        | Some w ->
            let w = Number.value w in
            constant := !constant + ((v land Bits.ones w) lsl numbits);
            numbits + w)
    | Expr.Bitstring s ->
        let v = String.fold_left (fun acc c -> (acc * 2) + if c = '1' then 1 else 0) 0 s in
        constant := !constant + (v lsl numbits);
        numbits + String.length s
    | Expr.Ref { name; field } -> (
        match field with
        | Expr.Whole ->
            fields := Field { name; mask = None; shift = numbits } :: !fields;
            Bits.word_bits
        | Expr.Bit fnum ->
            let lo = Number.value fnum in
            fields :=
              Field { name; mask = Some (Bits.field_mask ~lo ~hi:lo); shift = numbits - lo }
              :: !fields;
            numbits + 1
        | Expr.Range (fnum, tnum) ->
            let lo = Number.value fnum and hi = Number.value tnum in
            fields :=
              Field { name; mask = Some (Bits.field_mask ~lo ~hi); shift = numbits - lo }
              :: !fields;
            numbits + (hi - lo + 1))
  in
  let rec go numbits = function
    | [] -> ()
    | atom :: rest -> go (place numbits atom) rest
  in
  go 0 (List.rev e);
  (* [fields] accumulated right-to-left, so it is already in source order. *)
  let fields = !fields in
  match (fields, !constant) with
  | [], c -> [ Const c ]
  | fs, 0 -> fs
  | fs, c -> fs @ [ Const c ]

let alu_const_function (alu : Component.alu) =
  Option.map Component.alu_function_of_code (Expr.const_value alu.fn)

let memory_const_op (m : Component.memory) = Expr.const_value m.op

module Analysis = Asim_analysis.Analysis

let temp_elidable (a : Analysis.t) =
  let used = Analysis.memory_output_used a in
  fun id ->
    (not (used id))
    &&
    match a.Analysis.comps.(id).Component.kind with
    | Component.Memory m -> (
        match memory_const_op m with
        | Some op -> op land 3 <= 1 (* read or write; no I/O side effects *)
        | None -> false)
    | Component.Alu _ | Component.Selector _ -> false

let memory_parts (a : Analysis.t) =
  let elidable = temp_elidable a in
  Array.to_list a.Analysis.memories
  |> List.map (fun id ->
         match a.Analysis.comps.(id) with
         | { Component.name; kind = Component.Memory m } -> (name, m, elidable id)
         | _ -> assert false)

let order (a : Analysis.t) =
  Array.to_list (Array.map (fun id -> a.Analysis.comps.(id)) a.Analysis.order)

let is_memory (a : Analysis.t) name = Component.is_memory a.Analysis.comps.(Analysis.id a name)
