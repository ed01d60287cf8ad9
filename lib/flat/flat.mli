(** The flat-kernel engine: ASIM II compiled one rung further down.

    [Asim_compile] reproduces the paper's compiled-simulation idea with one
    OCaml closure per component; every cycle still pays a closure call, a
    hashtable-free but pointer-chasing walk, and re-evaluates components
    whose inputs did not change.  This engine removes both costs:

    {b Flat program.}  [create] compiles the analyzed specification into a
    contiguous int-coded instruction array over preallocated [int array]
    state (one slot per component output, one shared cell array for all
    memories, latched address/operation arrays).  Names, bit fields and
    widths are resolved at compile time into slot indices, masks and shift
    counts; evaluation is a tight tail-recursive dispatch loop over the
    instruction stream with no bounds checks (indices are validated when the
    program is emitted) and zero per-cycle heap allocation when tracing and
    I/O are quiet.

    {b Activity-driven scheduling.}  With [~schedule:Activity] (the
    default), each combinational component carries a dirty bit seeded from
    the specification's dependency graph.  A cycle only re-evaluates the
    combinational cone downstream of registers, memories and inputs whose
    {e values} actually changed; a producer whose output is recomputed but
    equal wakes nobody.  Memories always latch (they are sequential), and
    fault-injected components are pinned permanently dirty so cycle-windowed
    faults keep firing.  [~schedule:Full] re-evaluates everything every
    cycle — the ablation baseline for the benchmark harness.

    {b Must-fail plant.}  With [ASIM_FLAT_SKEW=1] in the environment when
    the program is compiled, the first memory whose output feeds
    combinational logic wakes none of its readers — a lost update the
    differential oracle must catch.  [Full] scheduling is immune.

    The result is observationally identical to [Asim_interp] and
    [Asim_compile] (the differential-fuzz oracle enforces this): same
    per-cycle outputs, traces, I/O events, statistics, runtime errors and
    fault behavior. *)

(** Combinational evaluation policy. *)
type schedule =
  | Activity  (** dirty-bit scheduling: skip quiescent logic (default) *)
  | Full  (** re-evaluate every component every cycle (ablation baseline) *)

val schedule_to_string : schedule -> string

val create :
  ?config:Asim_sim.Machine.config ->
  ?schedule:schedule ->
  ?tracer:Asim_obs.Tracer.t ->
  ?prof:Asim_prof.Prof.t ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t
(** Compile the analyzed spec to a flat program and return a runnable
    machine.  When [tracer] is active, compilation emits
    [codegen.flat.layout], [codegen.flat.emit] and [codegen.flat.wire]
    spans, so flat-compile time shows up next to the [pipeline.*] spans in
    a {{!Asim_obs.Tracer}Chrome trace}.  Emission always runs a peephole
    pass: a selector whose control input is an in-range constant compiles
    to its live case (an out-of-range constant keeps the dispatch, so the
    runtime range error still raises), and adjacent disjoint mask/shift
    loads of the same slot — [x.4.7,x.0.3] — fuse into one term.  This is
    the only fusion in the pipeline; the [Asim_opt] middle-end leaves it to
    the emitter.

    [prof] attaches an {!Asim_prof.Prof} profile: evaluation and fault
    counters tick in the kernel's hot loops (one preallocated-array
    increment per evaluation), the flat program's per-component word counts
    fill the profile's static cost model, the I/O handler is wrapped with a
    wait timer, and every [sample_every]-th cycle is timed per topological
    level.  Without [prof] the machine is built from the exact
    uninstrumented closures — the off path adds no per-cycle work at all. *)

val create_debug :
  ?config:Asim_sim.Machine.config ->
  ?schedule:schedule ->
  ?tracer:Asim_obs.Tracer.t ->
  ?prof:Asim_prof.Prof.t ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t * (unit -> (string * int) list)
(** Like {!create}, but also returns an inspection function giving the
    number of times each combinational component has actually been
    evaluated (in evaluation order).  Under [Activity] scheduling the
    counts expose which parts of the design were quiescent; under [Full]
    every count equals the cycle count.  For tests and the benchmark
    harness's skip-rate metric. *)

(** The engine's mutable core, exposed for the tiered engine's hot-swap:
    [s_vals] holds one slot per component in specification order (the same
    layout {!Asim_jit.Jit} generates against), [s_cells] every memory's
    cells concatenated in [Analysis.memories] declaration order.  A machine
    built over these arrays by another engine observes — and continues —
    the exact simulation state. *)
type state = { s_vals : int array; s_cells : int array }

val create_exposed :
  ?config:Asim_sim.Machine.config ->
  ?schedule:schedule ->
  ?tracer:Asim_obs.Tracer.t ->
  ?prof:Asim_prof.Prof.t ->
  Asim_analysis.Analysis.t ->
  Asim_sim.Machine.t * state
(** Like {!create}, but also hands back the machine's live state arrays.
    At a cycle boundary the arrays (plus [Machine.stats] and the cycle
    count) are the machine's entire future-determining state: the
    combinational slots are recomputed from scratch at the top of every
    cycle, and the latched address/op temporaries never cross a boundary —
    which is what makes the tiered engine's pointer-exchange handoff
    sound. *)

val program_size : Asim_analysis.Analysis.t -> int
(** Number of instruction words the flat program for this spec occupies —
    a compile-time metric (reported by benchmarks, no machine built).  For
    spec-level optimization effects, run the analysis through
    [Asim_opt.Opt.run] first — the opt-ablation benchmark measures program
    size that way. *)
