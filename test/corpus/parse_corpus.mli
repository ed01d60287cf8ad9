(** The parser's frozen behaviour on damaged input.

    A seeded mutator damages every built-in example ({!Asim.Specs.all}) and
    a few module and macro sources in four ways: truncation at evenly spaced
    offsets, deleting, duplicating or swapping whitespace-delimited tokens,
    and flipping single bits.  Each input's outcome is recorded as one line
    of [test/goldens/parse_errors.golden]: the digest of the canonical
    re-print and the analysis result when it parses, or the error message
    when it does not.  [tools/gen_goldens] writes the file; the syntax tests
    replay it and require every line to match byte for byte. *)

val sources : (string * string) list
(** Name and text of every unmutated source, in corpus order. *)

val mutants : seed:int -> string -> (string * string) list
(** [mutants ~seed text]: the mutation's description (e.g. ["del#12"],
    ["flip@301^4"]) and the damaged text, in a fixed order determined by
    [seed] and [text]. *)

val outcome : string -> string
(** One input's outcome, on one line.  Only {!Asim_core.Error.Error} is
    caught; any other exception escapes. *)

val render : unit -> string
(** The whole golden file. *)
