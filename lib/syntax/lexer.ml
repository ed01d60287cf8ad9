open Asim_core

type cursor = {
  src : string;
  mutable scan : int;
  mutable line : int;
  mutable line_start : int;
  mutable start : int;
  mutable stop : int;
  mutable tilde : bool;
  mutable period : bool;
}

(* Character classes, one byte per character code. *)
let token_char = '\000'
let blank = '\001'
let newline = '\002'
let brace = '\003'
let macro_char = '\004'

let classes =
  String.init 256 (fun k ->
      match Char.chr k with
      | ' ' | '\t' | '\r' -> blank
      | '\n' -> newline
      | '{' -> brace
      | '~' -> macro_char
      | _ -> token_char)

let class_at src i = String.unsafe_get classes (Char.code (String.unsafe_get src i))

let cursor source =
  let len = String.length source in
  (* First line must be a [#] comment; it is echoed into generated code. *)
  if len = 0 || source.[0] <> '#' then
    Error.fail ~position:{ line = 1; column = 1 } Error.Lexing "Comment required."
  else
    let line_end = match String.index_opt source '\n' with Some i -> i | None -> len in
    let comment = String.sub source 1 (line_end - 1) in
    let scan = if line_end < len then line_end + 1 else len in
    ( comment,
      {
        src = source;
        scan;
        line = 2;
        line_start = scan;
        start = scan;
        stop = scan;
        tilde = false;
        period = false;
      } )

let source c = c.src
let start c = c.start
let stop c = c.stop
let has_tilde c = c.tilde
let line c = c.line
let column c = c.start - c.line_start + 1
let position c = { Error.line = c.line; column = column c }

let text c = String.sub c.src c.start (c.stop - c.start)

(* Skip blanks, newlines and [{ ... }] comments from [i]; returns the offset
   of the next token character (or the end), counting lines on the way. *)
let rec skip c i =
  let src = c.src in
  if i >= String.length src then i
  else
    let k = class_at src i in
    if k = blank then skip c (i + 1)
    else if k = newline then begin
      c.line <- c.line + 1;
      c.line_start <- i + 1;
      skip c (i + 1)
    end
    else if k = brace then begin
      let position = { Error.line = c.line; column = i - c.line_start + 1 } in
      let j = ref (i + 1) in
      while !j < String.length src && String.unsafe_get src !j <> '}' do
        if String.unsafe_get src !j = '\n' then begin
          c.line <- c.line + 1;
          c.line_start <- !j + 1
        end;
        incr j
      done;
      if !j >= String.length src then
        Error.fail ~position Error.Lexing "unterminated { comment";
      skip c (!j + 1)
    end
    else i

(* End of the token that starts at [i], noting any [~] in it. *)
let rec token_end c i =
  if i >= String.length c.src then i
  else
    let k = class_at c.src i in
    if k = token_char then token_end c (i + 1)
    else if k = macro_char then begin
      c.tilde <- true;
      token_end c (i + 1)
    end
    else i

let next c =
  if c.period then begin
    c.period <- false;
    c.tilde <- false;
    c.start <- c.stop;
    c.stop <- c.scan;
    true
  end
  else begin
    let i = skip c c.scan in
    c.tilde <- false;
    let j = token_end c i in
    c.scan <- j;
    c.start <- i;
    (* Split a trailing period off multi-character tokens, as the paper's
       [gettoken] does, so ["4096."] reads as two tokens. *)
    if j - i > 1 && String.unsafe_get c.src (j - 1) = '.' then begin
      c.stop <- j - 1;
      c.period <- true
    end
    else c.stop <- j;
    j > i
  end

type token = { text : string; pos : Error.position }

let tokenize source =
  let comment, c = cursor source in
  let rec go acc = if next c then go ({ text = text c; pos = position c } :: acc) else acc in
  (comment, List.rev (go []))
