type term =
  | Decimal of int
  | Binary of int * int
  | Hex of int
  | Pow2 of int

type t = term list

let term_value = function
  | Decimal v | Hex v -> v
  | Binary (v, _) -> v
  | Pow2 e -> 1 lsl e

let value terms = List.fold_left (fun acc term -> acc + term_value term) 0 terms

let is_digit c = c >= '0' && c <= '9'

let is_hex_digit c = is_digit c || (c >= 'A' && c <= 'F')

let is_number_start c = is_digit c || c = '$' || c = '%' || c = '^'

let malformed s = Error.failf Error.Parsing "Malformed number %s." s

exception Malformed

let digit_value c = Char.code c - Char.code '0'
let hex_value c = if is_digit c then digit_value c else Char.code c - Char.code 'A' + 10

(* Small one-term decimals are shared: numbers are immutable, and most
   literals in a spec are bit positions, widths and function codes. *)
let small = Array.init 64 (fun k -> [ Decimal k ])

(* The terms of [s.[i .. stop - 1]] after [acc] (reversed); [Malformed]
   where the text is not a number. *)
let rec terms s i stop acc =
  let c = s.[i] in
  let first = if c = '%' || c = '$' || c = '^' then i + 1 else i in
  let v = ref 0 and j = ref first in
  (match c with
  | '%' ->
      while !j < stop && (s.[!j] = '0' || s.[!j] = '1') do
        v := (!v * 2) + digit_value s.[!j];
        incr j
      done
  | '$' ->
      while !j < stop && is_hex_digit s.[!j] do
        v := (!v * 16) + hex_value s.[!j];
        incr j
      done
  | _ ->
      while !j < stop && is_digit s.[!j] do
        v := (!v * 10) + digit_value s.[!j];
        incr j
      done);
  let j = !j and v = !v in
  if j = first then raise Malformed;
  if j = stop && acc = [] && first = i && v >= 0 && v < Array.length small then small.(v)
  else
    let t =
      match c with
      | '%' -> Binary (v, j - first)
      | '$' -> Hex v
      | '^' -> if v < 0 || v > Bits.word_bits then raise Malformed else Pow2 v
      | _ -> Decimal v
    in
    if j = stop then List.rev (t :: acc)
    else if s.[j] = '+' && j + 1 < stop then terms s (j + 1) stop (t :: acc)
    else raise Malformed

let parse_sub s start stop =
  try if start < stop then terms s start stop [] else raise Malformed
  with Malformed -> malformed (String.sub s start (stop - start))

let parse s = parse_sub s 0 (String.length s)

let parse_value s = value (parse s)

let term_to_string = function
  | Decimal v -> string_of_int v
  | Hex v -> Printf.sprintf "$%X" v
  | Binary (v, n) ->
      let width = max (Bits.width_needed v) (max 1 (min n Bits.word_bits)) in
      "%" ^ Bits.to_binary_string ~width v
  | Pow2 e -> Printf.sprintf "^%d" e

let to_string terms = String.concat "+" (List.map term_to_string terms)

let pp ppf t = Format.pp_print_string ppf (to_string t)
