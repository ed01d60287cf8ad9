(** Macro definition and expansion (Appendix A).

    Macro definitions come first in the token stream: each is a marker-prefixed
    name token followed by one body token, e.g. [~pack #0000].  We accept both
    [~] and [-] as the definition marker (the thesis text uses both; its
    scanned appendices disagree).  References are always [~name] and may occur
    anywhere inside a later token; the name extends over letters and digits
    and is replaced by the body.  Bodies are themselves expanded at definition
    time, so a macro may use previously defined macros but can never be
    recursive. *)

type table
(** Name → body, hashed, remembering definition order. *)

val definitions : table -> (string * string) list
(** In definition order. *)

val read : Lexer.cursor -> table
(** Read the leading macro definitions starting at the cursor's current
    token, leaving the cursor on the first token that is not part of one.
    Raises {!Asim_core.Error.Error} (phase [Parsing]) on a malformed
    definition (bad name, missing body, duplicate, or use of an undefined
    macro in a body). *)

val consume : Lexer.token list -> table * Lexer.token list
(** {!read} over a token list: the table and the tokens after the
    definitions. *)

val expand_text : table -> pos:Asim_core.Error.position -> string -> string
(** Expand every [~name] occurrence in one token.  Raises on undefined
    macros, mirroring the paper's "Error. Macro <x> not defined." *)

val expand : table -> Lexer.token list -> Lexer.token list
(** {!expand_text} over every token of a list that contains a [~]. *)
