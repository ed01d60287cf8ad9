(** ASIM II numeric literals.

    A number is a [+]-joined sum of terms; each term is decimal ([123]),
    binary ([%1011]), hexadecimal ([$3F]), or a power of two ([^12] = 4096).
    This is the paper's [str2num] (Appendix C), including its behaviour of
    summing terms, e.g. ["128+3+^8"] = 387. *)

type term =
  | Decimal of int
  | Binary of int * int  (** value, digit count (kept for printing) *)
  | Hex of int
  | Pow2 of int  (** exponent *)

type t = term list
(** Terms in source order; the value is their sum. *)

val value : t -> int

val term_value : term -> int

val parse : string -> t
(** Parse a complete number literal.  Raises {!Error.Error} (phase
    [Parsing]) on malformed input, mirroring the paper's
    "Error. Malformed number" diagnostic. *)

val parse_sub : string -> int -> int -> t
(** [parse_sub s start stop] is [parse (String.sub s start (stop - start))]
    without the copy. *)

val parse_value : string -> int
(** [value (parse s)]. *)

val is_number_start : char -> bool
(** True for characters that begin a numeric literal: digit, [$], [%], [^]. *)

val to_string : t -> string
(** Render back to source syntax ([Binary] keeps its digit count). *)

val pp : Format.formatter -> t -> unit
