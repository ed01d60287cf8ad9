(** The optimizing middle-end over the codegen IR.

    [run] rewrites an analyzed spec into an observably equivalent one that
    every backend (interp, closure-compiled, flat, native, tiered, and
    the source generators) consumes unchanged: traces, I/O events, memory
    cells, statistics, fault behaviour and runtime errors are preserved
    byte-for-byte; only the values of components proved unobservable (see
    {!result.dead}) may change.

    Three passes run in a fixed order.  {!Constprop} evaluates each
    combinational component, in evaluation order, over a three-point
    abstract value — a known constant, a bit field of known width, or
    unknown — whose transfer functions mirror {!Asim_core.Expr.eval}'s
    placement arithmetic exactly, including unmasked totals and negative
    intermediates.  {!Narrow} rewrites expressions from inferred widths, and
    {!Dce} stubs what no observable path reads.  Every rewrite is
    materialized back into ordinary spec components (constant wires, pruned
    selectors, trimmed fields), so no engine needs to know the optimizer
    exists. *)

type level = O0 | O1 | O2

val level_of_string : string -> level option
(** Accepts ["0"]/["1"]/["2"] and ["O0"]/["o1"]/... forms. *)

val level_to_string : level -> string
(** ["0"], ["1"] or ["2"]. *)

val env_var : string
(** ["ASIM_OPT"] — the CLI default when [-O] is not given. *)

val skew_env_var : string
(** ["ASIM_OPT_SKEW"] — set to [1] to plant the deliberate miscompile (a
    reversed combinational evaluation order, so components read stale
    values across the order boundary) used by the must-fail oracle checks.
    Only takes effect when the {!Dce} pass is active (so at [-O2], not
    [-O1]) and the spec has at least two combinational components. *)

val env_level : unit -> level
(** [ASIM_OPT] when set (raising {!Asim_core.Error.Error} on junk), else
    {!O2}. *)

type pass =
  | Constprop  (** fold constant components/selector cases, drop dead operands *)
  | Narrow  (** width-driven mask elision, field trimming, case truncation *)
  | Dce  (** stub components whose values are provably unobservable *)

val all_passes : pass list
(** The passes in pipeline order. *)

val passes_of_level : level -> pass list
(** [O0] = none; [O1] = constprop, narrow; [O2] = all three. *)

val pass_to_string : pass -> string

type stats = {
  folded : int;  (** components replaced by a constant wire *)
  rewired : int;
      (** always 0: no pass forwards one component to another any more.
          Kept because the benchmark reads it. *)
  stubbed : int;  (** dead components stubbed to constant zero *)
  fused : int;  (** dead-operand drops and constant selector folds *)
  narrowed : int;  (** mask elisions, field trims/drops, case truncations *)
}

type result = {
  analysis : Asim_analysis.Analysis.t;
  dead : string list;
      (** names stubbed by {!Dce}: their per-cycle values are no longer
          meaningful (everything else is bit-identical).  Oracles comparing
          raw component snapshots across opt levels must mask these. *)
  stats : stats;
}

val run_result :
  ?level:level ->
  ?passes:pass list ->
  ?keep:string list ->
  Asim_analysis.Analysis.t ->
  result
(** Optimize an analyzed spec.  [passes] overrides [level]'s pass set (for
    per-pass ablation); [level] defaults to {!O2}.  [keep] names components
    whose values must be preserved exactly and whose width claims cannot be
    trusted — engines pass the fault-plan targets, batch passes every name
    when raw outputs are requested.  Traced components are always kept
    verbatim.  The evaluation order is carried over from the input
    analysis.

    The passes work over the analysis's resolved program (its [comps] and
    [refs], by id) and resolve no name themselves.  They rewrite copies,
    so the input analysis is never modified and can be optimized again;
    the result's analysis carries the rewritten [comps], [spec] and
    [refs], and shares [ids] and [memories] with the input, since no pass
    adds, removes or renames a component. *)

val run :
  ?level:level ->
  ?passes:pass list ->
  ?keep:string list ->
  Asim_analysis.Analysis.t ->
  Asim_analysis.Analysis.t
(** [run_result] without the report. *)
