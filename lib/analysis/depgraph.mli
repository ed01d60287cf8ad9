(** Dependency ordering of combinational components.

    ASIM II avoids simulating true parallelism by sorting ALUs and selectors
    so that every component is evaluated after the components whose outputs
    it reads (§4.3).  Memories are not sorted: their outputs come from
    one-cycle-delayed temporaries, so reading a memory imposes no ordering
    constraint. *)

val order : Asim_core.Component.t array -> int array array -> int array
(** Ids (positions in [comps]) of the combinational components (ALUs and
    selectors only) in an evaluation order that respects data dependencies;
    ties broken by source order, so
    the result is deterministic.  Names are already resolved: [refs.(i)]
    holds, for each reference of component [i] (left to right across its
    inputs, as {!Width.resolve} lists them), the index of the component it
    names, or a negative number for none.  Raises {!Asim_core.Error.Error}
    with the paper's "Circular dependency with ... and/or ..." message when
    the combinational graph is cyclic. *)
