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
    ({!solve}).  The assoc-list {!env} API is a view over that core. *)

open Asim_core

type env = (string * int) list
(** Component name → inferred output width in bits. *)

val infer : Spec.t -> env
(** Fixpoint width inference over the whole spec.  Every declared component
    gets an entry; unknown constructs default to the full word. *)

(** {1 The dense core}

    {!infer} resolves each component's references to slots, compiles its
    rule into a {!plan}, and {!solve}s the plan.  The optimizer drives the
    same steps itself, re-compiling only the components it rewrites. *)

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

val component_width : env -> Component.t -> int
(** Width of one component's output under the environment. *)

val expr_width : env -> Expr.t -> int
(** Width of an expression, resolving filling references through [env]. *)
