open Asim_core

(* Printable VCD identifier codes: '!' .. '~', then two-character codes. *)
let identifier i =
  let base = 94 and first = 33 in
  if i < base then String.make 1 (Char.chr (first + i))
  else
    let hi = (i / base) - 1 and lo = i mod base in
    Printf.sprintf "%c%c" (Char.chr (first + hi)) (Char.chr (first + lo))

let default_names (m : Machine.t) =
  let spec = m.Machine.analysis.Asim_analysis.Analysis.spec in
  match Spec.traced_names spec with
  | [] -> List.map (fun (c : Component.t) -> c.name) spec.Spec.components
  | traced -> traced

let record ?names ?(timescale = "1 ns") (m : Machine.t) ~cycles =
  let names = match names with Some ns -> ns | None -> default_names m in
  let analysis = m.Machine.analysis in
  let widths = Asim_analysis.Analysis.widths analysis in
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "$date\n  ASIM II reproduction\n$end\n";
  Buffer.add_string buf "$version\n  asim vcd dump\n$end\n";
  Buffer.add_string buf (Printf.sprintf "$timescale %s $end\n" timescale);
  Buffer.add_string buf "$scope module asim $end\n";
  let signals =
    List.mapi
      (fun i name ->
        let width =
          match Spec.Names.find_opt analysis.Asim_analysis.Analysis.ids name with
          | Some id -> widths.(id)
          | None -> Bits.word_bits
        in
        let id = identifier i in
        Buffer.add_string buf
          (Printf.sprintf "$var wire %d %s %s $end\n" width id name);
        (name, id, width))
      names
  in
  Buffer.add_string buf "$upscope $end\n$enddefinitions $end\n";
  let last = Hashtbl.create 16 in
  let emit_time t = Buffer.add_string buf (Printf.sprintf "#%d\n" t) in
  let emit_value (name, id, width) =
    let v = m.Machine.read name land Bits.mask in
    let changed =
      match Hashtbl.find_opt last name with
      | Some prev -> prev <> v
      | None -> true
    in
    if changed then begin
      Hashtbl.replace last name v;
      if width = 1 then Buffer.add_string buf (Printf.sprintf "%d%s\n" (v land 1) id)
      else
        Buffer.add_string buf
          (Printf.sprintf "b%s %s\n" (Bits.to_binary_string ~width v) id)
    end
  in
  emit_time 0;
  List.iter emit_value signals;
  for cycle = 1 to cycles do
    m.Machine.step ();
    emit_time cycle;
    List.iter emit_value signals
  done;
  Buffer.contents buf

let record_to_file ?names ?timescale m ~cycles ~path =
  let text = record ?names ?timescale m ~cycles in
  let oc = open_out path in
  output_string oc text;
  close_out oc

(* --- parsing ------------------------------------------------------------- *)

type wave = {
  signal : string;
  bits : int;
  changes : (int * int) list;
}

let parse_fail fmt = Error.failf Error.Parsing fmt

let parse text =
  let tokens =
    String.split_on_char '\n' text
    |> List.concat_map (String.split_on_char ' ')
    |> List.filter (fun t -> t <> "" && t <> "\r")
  in
  let vars = Hashtbl.create 16 in
  (* id -> (signal, bits, rev changes) *)
  let time = ref 0 in
  let record_change id v =
    match Hashtbl.find_opt vars id with
    | Some (signal, bits, changes) ->
        Hashtbl.replace vars id (signal, bits, (!time, v) :: changes)
    | None -> parse_fail "VCD: value change for undeclared identifier %s" id
  in
  let order = ref [] in
  let rec scan = function
    | [] -> ()
    | "$var" :: _type :: bits :: id :: name :: rest ->
        let bits =
          match int_of_string_opt bits with
          | Some b when b > 0 -> b
          | _ -> parse_fail "VCD: bad width %s" bits
        in
        Hashtbl.replace vars id (name, bits, []);
        order := id :: !order;
        (* skip to $end *)
        let rec to_end = function
          | "$end" :: rest -> rest
          | _ :: rest -> to_end rest
          | [] -> parse_fail "VCD: unterminated $var"
        in
        scan (to_end rest)
    | tok :: rest when String.length tok > 0 && tok.[0] = '$' ->
        (* other directives: skip their body up to $end when they have one *)
        if
          List.mem tok
            [ "$date"; "$version"; "$timescale"; "$scope"; "$upscope"; "$comment" ]
        then
          let rec to_end = function
            | "$end" :: r -> r
            | _ :: r -> to_end r
            | [] -> []
          in
          scan (to_end rest)
        else if tok = "$enddefinitions" || tok = "$dumpvars" || tok = "$end" then
          scan rest
        else scan rest
    | tok :: rest when tok.[0] = '#' -> (
        match int_of_string_opt (String.sub tok 1 (String.length tok - 1)) with
        | Some t ->
            time := t;
            scan rest
        | None -> parse_fail "VCD: bad timestamp %s" tok)
    | tok :: rest when tok.[0] = 'b' || tok.[0] = 'B' -> (
        (* vector: b1010 then the identifier as the next token *)
        let v =
          String.fold_left
            (fun acc c ->
              match c with
              | '0' -> acc * 2
              | '1' -> (acc * 2) + 1
              | 'b' | 'B' -> acc
              | _ -> parse_fail "VCD: bad vector digit %c" c)
            0 tok
        in
        match rest with
        | id :: rest ->
            record_change id v;
            scan rest
        | [] -> parse_fail "VCD: vector change without identifier")
    | tok :: rest when tok.[0] = '0' || tok.[0] = '1' ->
        (* scalar: 0! / 1! with the identifier attached *)
        let v = if tok.[0] = '1' then 1 else 0 in
        let id = String.sub tok 1 (String.length tok - 1) in
        if id = "" then parse_fail "VCD: scalar change without identifier"
        else begin
          record_change id v;
          scan rest
        end
    | tok :: _ -> parse_fail "VCD: unexpected token %s" tok
  in
  scan tokens;
  List.rev_map
    (fun id ->
      match Hashtbl.find_opt vars id with
      | Some (signal, bits, changes) -> { signal; bits; changes = List.rev changes }
      | None -> assert false)
    !order

let value_at wave t =
  List.fold_left (fun acc (time, v) -> if time <= t then v else acc) 0 wave.changes

let diff a b =
  let horizon waves =
    List.fold_left
      (fun acc w -> List.fold_left (fun acc (t, _) -> max acc t) acc w.changes)
      0 waves
  in
  let last = max (horizon a) (horizon b) in
  let find waves name = List.find_opt (fun w -> w.signal = name) waves in
  let names =
    List.sort_uniq compare (List.map (fun w -> w.signal) a @ List.map (fun w -> w.signal) b)
  in
  List.filter_map
    (fun name ->
      match (find a name, find b name) with
      | Some wa, Some wb ->
          let times = ref [] in
          for t = last downto 0 do
            if value_at wa t <> value_at wb t then times := t :: !times
          done;
          if !times = [] then None else Some (name, !times)
      | Some _, None | None, Some _ -> Some (name, [ -1 ])
      | None, None -> None)
    names
