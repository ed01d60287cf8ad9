(** Output-width inference.

    Estimates how many bits each component's output can occupy.  Expression
    fields give exact widths; filling references take the width of the
    referenced component, resolved by a monotone fixpoint (bounded by the
    31-bit word).  ALU widths follow the function's arithmetic (e.g. add =
    max + 1, compare = 1).  Used by the netlist backend to size flip-flops,
    adders and multiplexors, by [asim check] diagnostics, and by the
    optimizer's narrowing.

    The rules are compiled once per component, with every filling reference
    resolved to a slot, and the fixpoint sweeps an [int array]
    ({!solve}).  Widths are by id: a component's position in the spec,
    the numbering [Analysis] resolves every name to. *)

open Asim_core

val infer : Component.t array -> int array array -> int array
(** Fixpoint width inference over a resolved program: [refs.(i)] are
    component [i]'s references as {!resolve} lists them.  Returns every
    component's output width in bits, by id; unknown constructs default to
    the full word. *)

val expr_width : int array -> (unit -> int) -> Expr.t -> int
(** Width of one expression under [widths] (by id, as {!infer} returns
    them).  [next] supplies the ids of the expression's references, left to
    right; a negative id reads as the full word. *)

(** {1 The dense core}

    {!infer} compiles each component's rule into a {!plan} and {!solve}s
    the plan.  The optimizer drives the same steps itself, re-compiling
    only the components it rewrites. *)

type plan
(** Every component's width rule, with its references resolved to slots:
    component [i]'s width is slot [i]. *)

val plan : int -> plan
(** A plan for [n] components, none of whose rules is set yet. *)

val update : plan -> int -> refs:int array -> Component.t -> unit
(** Set component [i]'s rule; [refs] are the slots its references name
    (see {!resolve}).  Names are assumed distinct, as {!Spec.validate}
    requires. *)

val solve : plan -> int array
(** The fixpoint: every component's width, by index. *)

val resolve : id:(string -> int) -> Component.t -> int array
(** A component's references as slots: [id name] for each [Ref] atom, left
    to right across {!Component.inputs}; [id] returns a negative number for
    a name nothing defines, which reads as the full word. *)
