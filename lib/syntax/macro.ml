open Asim_core

type table = { bodies : string Spec.Names.t; mutable order : string list }
(* [order]: most recent definition first. *)

let definitions t = List.rev_map (fun name -> (name, Spec.Names.find t.bodies name)) t.order

let is_name_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9')

let expand_text t ~pos text =
  let buf = Buffer.create (String.length text) in
  let len = String.length text in
  let i = ref 0 in
  while !i < len do
    if text.[!i] = '~' then begin
      let start = !i + 1 in
      let stop = ref start in
      while !stop < len && is_name_char text.[!stop] do
        incr stop
      done;
      let name = String.sub text start (!stop - start) in
      (match Spec.Names.find_opt t.bodies name with
      | Some body -> Buffer.add_string buf body
      | None -> Error.failf ~position:pos Error.Parsing "Macro <%s> not defined." name);
      i := !stop
    end
    else begin
      Buffer.add_char buf text.[!i];
      incr i
    end
  done;
  Buffer.contents buf

(* [s.[start .. stop - 1]] opens a definition. *)
let is_marker s start stop = stop - start > 1 && (s.[start] = '~' || s.[start] = '-')

(* One definition: [marker] is the whole marker token, [body] the next. *)
let define t ~pos marker ~body_pos body =
  let name = String.sub marker 1 (String.length marker - 1) in
  if not (Spec.is_valid_name name) then
    Error.failf ~position:pos Error.Parsing
      "macro name %s invalid, use letters and numbers only." name;
  if Spec.Names.mem t.bodies name then
    Error.failf ~position:pos Error.Parsing "macro %s defined twice" name;
  Spec.Names.add t.bodies name (expand_text t ~pos:body_pos body);
  t.order <- name :: t.order

let create () = { bodies = Spec.Names.create 16; order = [] }

let read c =
  let t = create () in
  while is_marker (Lexer.source c) (Lexer.start c) (Lexer.stop c) do
    let marker = Lexer.text c and pos = Lexer.position c in
    if not (Lexer.next c) then
      Error.failf ~position:pos Error.Parsing "macro %s has no body" marker;
    define t ~pos marker ~body_pos:(Lexer.position c) (Lexer.text c);
    ignore (Lexer.next c : bool)
  done;
  t

let consume tokens =
  let t = create () in
  let rec go = function
    | { Lexer.text; pos } :: body :: rest when is_marker text 0 (String.length text) ->
        define t ~pos text ~body_pos:body.Lexer.pos body.Lexer.text;
        go rest
    | [ { Lexer.text; pos } ] when is_marker text 0 (String.length text) ->
        Error.failf ~position:pos Error.Parsing "macro %s has no body" text
    | rest -> (t, rest)
  in
  go tokens

let expand t tokens =
  List.map
    (fun ({ Lexer.text; pos } as tok) ->
      if String.contains text '~' then { tok with Lexer.text = expand_text t ~pos text }
      else tok)
    tokens
