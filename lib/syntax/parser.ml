open Asim_core

let parse_number = Number.parse

(* Every token is a slice [buf.[a .. b - 1]]: of the source text itself, or
   of a macro expansion.  Atoms, fields and numbers are parsed by index
   inside the slice; only names and bit strings are copied out. *)

let slice buf a b = String.sub buf a (b - a)

let rec index_from buf i b c =
  if i < b && String.unsafe_get buf i <> c then index_from buf (i + 1) b c else i

(* Errors inside a token carry its position when the token came from a
   spec ([line > 0]); a standalone expression has none. *)
let position line column = if line > 0 then Some { Error.line; column } else None

(* --- expressions ------------------------------------------------------- *)

let malformed line column buf a b =
  Error.failf ?position:(position line column) Error.Parsing "Malformed expression %s."
    (slice buf a b)

let rec binary buf i b = i >= b || ((buf.[i] = '0' || buf.[i] = '1') && binary buf (i + 1) b)

(* One [,]-separated piece: [#bits], [number[.width]] or
   [name[.f[.t]]]. *)
let atom line column buf a b =
  if buf.[a] = '#' then
    if b - a = 1 || not (binary buf (a + 1) b) then malformed line column buf a b
    else Expr.Bitstring (slice buf (a + 1) b)
  else
    (* Up to three [.]-separated parts, none empty. *)
    let d1 = index_from buf a b '.' in
    let d2 = if d1 < b then index_from buf (d1 + 1) b '.' else b in
    let d3 = if d2 < b then index_from buf (d2 + 1) b '.' else b in
    let parts = if d1 = b then 1 else if d2 = b then 2 else if d3 = b then 3 else 4 in
    let well_formed =
      match parts with
      | 1 -> true
      | 2 -> d1 > a && d1 + 1 < b
      | 3 -> d1 > a && d2 > d1 + 1 && d2 + 1 < b
      | _ -> false
    in
    if not well_formed then malformed line column buf a b
    else if Number.is_number_start buf.[a] then
      match parts with
      | 1 -> Expr.Const { number = Number.parse_sub buf a b; width = None }
      | 2 ->
          (* The width is read before the number, so a literal with both
             malformed reports the width, as it always has. *)
          let width = Number.parse_sub buf (d1 + 1) b in
          Expr.Const { number = Number.parse_sub buf a d1; width = Some width }
      | _ -> malformed line column buf a b
    else
      let name = slice buf a d1 in
      if not (Spec.is_valid_name name) then malformed line column buf a b
      else
        match parts with
        | 1 -> Expr.Ref { name; field = Expr.Whole }
        | 2 -> Expr.Ref { name; field = Expr.Bit (Number.parse_sub buf (d1 + 1) b) }
        | _ ->
            (* [t] before [f], for the same reason as the width above. *)
            let t = Number.parse_sub buf (d2 + 1) b in
            Expr.Ref { name; field = Expr.Range (Number.parse_sub buf (d1 + 1) d2, t) }

let rec pieces_ok buf i b =
  let j = index_from buf i b ',' in
  j > i && (j = b || (j + 1 < b && pieces_ok buf (j + 1) b))

let rec atoms line column buf i b =
  let j = index_from buf i b ',' in
  let x = atom line column buf i j in
  if j = b then [ x ] else x :: atoms line column buf (j + 1) b

(* The [,]-separated atoms of [buf.[a .. b - 1]]; every piece must be
   non-empty before any is parsed. *)
let expr line column buf a b =
  if not (a < b && pieces_ok buf a b) then malformed line column buf a b
  else atoms line column buf a b

let parse_expr text = expr 0 0 text 0 (String.length text)

let value buf a b = Number.value (Number.parse_sub buf a b)

(* --- the token stream -------------------------------------------------- *)

type stream = {
  lx : Lexer.cursor;
  macros : Macro.table;
  mutable more : bool;  (** a current token exists *)
  (* the current (next unconsumed) token *)
  mutable buf : string;
  mutable a : int;
  mutable b : int;
  mutable line : int;
  mutable column : int;
  (* the token [take] consumed last *)
  mutable tbuf : string;
  mutable ta : int;
  mutable tb : int;
  mutable tline : int;
  mutable tcolumn : int;
}

(* A macro error: it outranks any parse error, but not a lexing error
   further on (see [parse_string]). *)
exception Macro_error of exn

let pos s = { Error.line = s.line; column = s.column }
let last s = { Error.line = s.tline; column = s.tcolumn }

(* Make the lexer's token current, expanding it when it holds a [~]. *)
let load s =
  let lx = s.lx in
  s.line <- Lexer.line lx;
  s.column <- Lexer.column lx;
  if Lexer.has_tilde lx then begin
    let text =
      try Macro.expand_text s.macros ~pos:(pos s) (Lexer.text lx)
      with Error.Error _ as e -> raise (Macro_error e)
    in
    s.buf <- text;
    s.a <- 0;
    s.b <- String.length text
  end
  else begin
    (* Pointer stores pay a write barrier; most tokens need none. *)
    let src = Lexer.source lx in
    if s.buf != src then s.buf <- src;
    s.a <- Lexer.start lx;
    s.b <- Lexer.stop lx
  end

(* Consume the current token into [tbuf.[ta .. tb - 1]]. *)
let take s what =
  if not s.more then
    Error.failf ~position:(last s) Error.Parsing "unexpected end of input, expected %s" what;
  if s.tbuf != s.buf then s.tbuf <- s.buf;
  s.ta <- s.a;
  s.tb <- s.b;
  s.tline <- s.line;
  s.tcolumn <- s.column;
  s.more <- Lexer.next s.lx;
  if s.more then load s

let taken s = slice s.tbuf s.ta s.tb

(* The consumed token is the single character [c]. *)
let taken_is s c = s.tb - s.ta = 1 && s.tbuf.[s.ta] = c

let current_is s c = s.more && s.b - s.a = 1 && s.buf.[s.a] = c

(* --- sections ----------------------------------------------------------- *)

let parse_cycles s =
  if current_is s '=' then begin
    take s "=";
    take s "cycle count";
    Some (value s.tbuf s.ta s.tb)
  end
  else None

let parse_decls s =
  let rec go acc =
    take s "component name or .";
    if taken_is s '.' then List.rev acc
    else
      let n = s.tb - s.ta in
      let traced = n > 1 && s.tbuf.[s.tb - 1] = '*' in
      let name = slice s.tbuf s.ta (if traced then s.tb - 1 else s.tb) in
      if not (Spec.is_valid_name name) then
        Error.failf ~position:(last s) Error.Parsing
          "Component name %s invalid, use letters and numbers only." name;
      go ({ Spec.name; traced } :: acc)
  in
  go []

let is_component_letter c =
  c = 'A' || c = 'S' || c = 'M' || c = 'B' || c = 'E' || c = 'U'

let parse_name s =
  take s "component name";
  let name = taken s in
  if not (Spec.is_valid_name name) then
    Error.failf ~position:(last s) Error.Parsing
      "Component name %s invalid, use letters and numbers only." name;
  name

let parse_expr_token s what =
  take s what;
  expr s.tline s.tcolumn s.tbuf s.ta s.tb

let parse_alu s =
  let name = parse_name s in
  let fn = parse_expr_token s "ALU function" in
  let left = parse_expr_token s "ALU left operand" in
  let right = parse_expr_token s "ALU right operand" in
  { Component.name; kind = Component.Alu { fn; left; right } }

let parse_selector s =
  let name = parse_name s in
  let select = parse_expr_token s "selector input" in
  let rec cases acc =
    if not s.more then
      Error.failf ~position:(last s) Error.Parsing
        "unexpected end of input in selector %s (missing final .?)" name
    else if s.b - s.a = 1 && (is_component_letter s.buf.[s.a] || s.buf.[s.a] = '.') then
      List.rev acc
    else cases (parse_expr_token s "selector value" :: acc)
  in
  let cases = cases [] in
  if cases = [] then
    Error.failf ~position:(last s) ~component:name Error.Parsing "selector has no values";
  { Component.name; kind = Component.Selector { select; cases = Array.of_list cases } }

let parse_memory s =
  let name = parse_name s in
  let addr = parse_expr_token s "memory address" in
  let data = parse_expr_token s "memory data" in
  let op = parse_expr_token s "memory operation" in
  take s "memory cell count";
  if s.tb - s.ta > 1 && s.tbuf.[s.ta] = '-' then begin
    let cells = value s.tbuf (s.ta + 1) s.tb in
    if cells < 1 then
      Error.failf ~position:(last s) ~component:name Error.Parsing
        "memory must have at least one cell";
    (* Values are read as they arrive: a count the text cannot back runs
       into the end of the input, not into a huge allocation. *)
    let rec values k acc =
      if k = 0 then acc
      else begin
        take s "memory initial value";
        values (k - 1) (value s.tbuf s.ta s.tb :: acc)
      end
    in
    let init = Array.of_list (List.rev (values cells [])) in
    { Component.name; kind = Component.Memory { addr; data; op; cells; init = Some init } }
  end
  else
    let cells = value s.tbuf s.ta s.tb in
    { Component.name; kind = Component.Memory { addr; data; op; cells; init = None } }

(* Component list with the §5.4 module extension: [B name ports... .] opens
   a module definition (terminated by [E]); [U inst module actuals...]
   splices an instance in, with internal names prefixed by the instance
   name.  Names created by expansion are also returned so the caller can
   declare them implicitly. *)
let parse_components s =
  let modules = Hashtbl.create 8 in
  let expanded = ref [] in
  let parse_ports () =
    let rec go acc =
      take s "port name or .";
      if taken_is s '.' then List.rev acc
      else begin
        let port = taken s in
        if not (Spec.is_valid_name port) then
          Error.failf ~position:(last s) Error.Parsing
            "port name %s invalid, use letters and numbers only." port;
        go (port :: acc)
      end
    in
    go []
  in
  let rec go ~in_module acc =
    take s "component (A, S, M, B, U) or terminator";
    let letter = if s.tb - s.ta = 1 then s.tbuf.[s.ta] else ' ' in
    match letter with
    | '.' when not in_module -> List.rev acc
    | 'E' when in_module -> List.rev acc
    | '.' ->
        Error.failf ~position:(last s) Error.Parsing "module body must end with E, not ."
    | 'E' -> Error.failf ~position:(last s) Error.Parsing "E without a matching B"
    | 'A' -> go ~in_module (parse_alu s :: acc)
    | 'S' -> go ~in_module (parse_selector s :: acc)
    | 'M' -> go ~in_module (parse_memory s :: acc)
    | 'B' when in_module ->
        Error.failf ~position:(last s) Error.Parsing
          "nested module definitions are not supported"
    | 'B' ->
        let position = last s in
        let def_name = parse_name s in
        if Hashtbl.mem modules def_name then
          Error.failf ~position Error.Parsing "module %s defined twice" def_name;
        let ports = parse_ports () in
        let body = go ~in_module:true [] in
        let def = { Modular.def_name; ports; body } in
        Modular.validate_def def;
        Hashtbl.add modules def_name def;
        go ~in_module acc
    | 'U' ->
        let inst = parse_name s in
        take s "module name";
        let def =
          match Hashtbl.find_opt modules (taken s) with
          | Some def -> def
          | None ->
              Error.failf ~position:(last s) Error.Parsing "module <%s> not defined"
                (taken s)
        in
        let actuals = List.map (fun _ -> parse_name s) def.Modular.ports in
        let components = Modular.expand def ~inst ~actuals in
        if not in_module then
          expanded :=
            List.rev_append
              (List.map (fun (c : Component.t) -> c.name) components)
              !expanded;
        go ~in_module (List.rev_append components acc)
    | _ ->
        Error.failf ~position:(last s) Error.Parsing
          "Component expected. Got <%s> instead." (taken s)
  in
  let components = go ~in_module:false [] in
  (components, List.rev !expanded)

(* Components spliced in by module instantiation are declared implicitly
   (untraced) unless the user listed them. *)
let implicit_decls decls expanded =
  if expanded = [] then decls
  else
    let declared = Spec.Names.create (List.length decls) in
    List.iter (fun (d : Spec.decl) -> Spec.Names.replace declared d.name ()) decls;
    decls
    @ List.filter_map
        (fun name ->
          if Spec.Names.mem declared name then None
          else Some { Spec.name; traced = false })
        expanded

let parse lx macros comment =
  let s =
    {
      lx;
      macros;
      more = Lexer.start lx < Lexer.stop lx;
      buf = Lexer.source lx;
      a = 0;
      b = 0;
      line = 1;
      column = 1;
      tbuf = Lexer.source lx;
      ta = 0;
      tb = 0;
      tline = 1;
      tcolumn = 1;
    }
  in
  if s.more then load s;
  let cycles = parse_cycles s in
  let decls = parse_decls s in
  let components, expanded = parse_components s in
  let decls = implicit_decls decls expanded in
  if s.more then
    Error.failf ~position:(pos s) Error.Parsing "trailing input after final period: <%s>"
      (slice s.buf s.a s.b);
  let spec = { Spec.comment; cycles; decls; components } in
  Spec.validate spec;
  spec

(* One pass, but errors rank as if the whole text were lexed, then
   macro-expanded, then parsed: a lexing error anywhere outranks a macro
   error, and a macro error anywhere outranks a parse error.  So an error
   is raised only after the rest of the text has been scanned for one of
   higher rank; the scan raises a lexing error itself. *)
let skip_rest lx = while Lexer.next lx do () done

let rec first_macro_error lx macros =
  if not (Lexer.next lx) then None
  else if not (Lexer.has_tilde lx) then first_macro_error lx macros
  else
    match Macro.expand_text macros ~pos:(Lexer.position lx) (Lexer.text lx) with
    | _ -> first_macro_error lx macros
    | exception (Error.Error _ as e) ->
        skip_rest lx;
        Some e

let parse_string source =
  let comment, lx = Lexer.cursor source in
  match
    ignore (Lexer.next lx : bool);
    Macro.read lx
  with
  | exception (Error.Error { phase = Error.Parsing; _ } as e) ->
      skip_rest lx;
      raise e
  | macros -> (
      match parse lx macros comment with
      | spec -> spec
      | exception Macro_error e ->
          skip_rest lx;
          raise e
      | exception (Error.Error { phase = Error.Lexing; _ } as e) -> raise e
      | exception (Error.Error _ as e) ->
          raise (Option.value (first_macro_error lx macros) ~default:e))

let parse_file path =
  let ic = open_in_bin path in
  let read () =
    let n = in_channel_length ic in
    really_input_string ic n
  in
  let source =
    try read ()
    with e ->
      close_in_noerr ic;
      raise e
  in
  close_in ic;
  parse_string source
