(** Parser: specification text → {!Asim_core.Spec.t}, in one pass that
    pulls tokens from a {!Lexer.cursor} and expands macros only in tokens
    holding a [~].

    File layout (Appendix A):
    {v
    # comment line
    ~macro body ...          (zero or more macro definitions)
    = 100                    (optional cycle count)
    name1* name2 name3 .     (declaration list; * marks traced components)
    A name fn left right
    S name select v0 v1 ... vn
    M name addr data op n [v0 ... v|n|-1]    (n < 0 supplies initial values)
    .
    v}

    A selector's value list extends until the next component letter
    ([A]/[S]/[M]/[B]/[E]/[U] as a standalone single-character token) or the
    final period; consequently those single-letter component names cannot be
    used as selector inputs (the original has the same restriction for its
    letters).

    The §5.4 modularity extension adds two forms (see {!Modular}):
    {v
    B name port1 ... portn .    components ...    E     (define a module)
    U inst name actual1 ... actualn                     (instantiate it)
    v} *)

val parse_string : string -> Asim_core.Spec.t
(** Parse a complete specification source.  Raises {!Asim_core.Error.Error}
    with phase [Lexing]/[Parsing] on malformed input, ranked as if the
    whole text were lexed, then macro-expanded, then parsed: the first
    lexing error anywhere wins, then the first macro error, then the first
    parse error.  The result is structurally validated
    ({!Asim_core.Spec.validate}). *)

val parse_file : string -> Asim_core.Spec.t
(** [parse_string] over a file's contents. *)

val parse_expr : string -> Asim_core.Expr.t
(** Parse a standalone expression token, e.g. ["mem.3.4,#01,count.1"]. *)

val parse_number : string -> Asim_core.Number.t
(** Parse a standalone number token, e.g. ["128+3+^8"]. *)
