(** Tokenizer for ASIM II specification files.

    The format (Appendix A): the first line is a mandatory [#] comment;
    afterwards the file is a stream of whitespace-delimited tokens, with
    [{ ... }] comments (not nested) acting as whitespace.  A token whose last
    character is [.] is split into the token proper and a standalone [.], so
    the terminating period of a list may abut the preceding field.

    The scanner is a {!cursor} over the source string: it yields each
    token's offsets and copies nothing.  It counts lines as it goes, so a
    token's column costs one subtraction, and only when asked for. *)

type cursor
(** Before the first {!next} and after the last, the current token is
    empty ([start c = stop c]). *)

val cursor : string -> string * cursor
(** [cursor source] returns the first-line comment (with the leading [#]
    stripped) and a cursor before the first token of the remainder.  Raises
    {!Asim_core.Error.Error} (phase [Lexing]) when the comment line is
    missing. *)

val next : cursor -> bool
(** Advance to the next token; [false] (and an empty token) at the end.
    Raises {!Asim_core.Error.Error} (phase [Lexing]) on an unterminated [{]
    comment. *)

val source : cursor -> string
(** The text the cursor scans. *)

val start : cursor -> int
(** The current token is [source c] from [start c] to [stop c - 1]. *)

val stop : cursor -> int

val has_tilde : cursor -> bool
(** The current token contains a [~]. *)

val line : cursor -> int
(** Line of the current token's first character. *)

val column : cursor -> int
(** Column of the current token's first character. *)

val position : cursor -> Asim_core.Error.position
(** [line] and [column] together. *)

val text : cursor -> string
(** A copy of the current token. *)

type token = {
  text : string;
  pos : Asim_core.Error.position;  (** position of the token's first char *)
}

val tokenize : string -> string * token list
(** The whole source at once: the first-line comment and every token, as
    {!cursor} and {!next} yield them, raising as they do. *)
