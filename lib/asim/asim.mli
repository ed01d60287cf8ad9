(** Umbrella entry point: load a specification and run it under either
    engine.  Also re-exports the sub-libraries under short aliases so most
    users need only [Asim]. *)

module Bits = Asim_core.Bits
module Number = Asim_core.Number
module Expr = Asim_core.Expr
module Component = Asim_core.Component
module Spec = Asim_core.Spec
module Pretty = Asim_core.Pretty
module Error = Asim_core.Error
module Parser = Asim_syntax.Parser
module Macro = Asim_syntax.Macro
module Analysis = Asim_analysis.Analysis
module Depgraph = Asim_analysis.Depgraph
module Width = Asim_analysis.Width
module Io = Asim_sim.Io
module Trace = Asim_sim.Trace
module Stats = Asim_sim.Stats
module Fault = Asim_sim.Fault
module Profile = Asim_sim.Profile
module Coverage = Asim_sim.Coverage
module Machine = Asim_sim.Machine
module Vcd = Asim_sim.Vcd
module Interp = Asim_interp.Interp
module Compile = Asim_compile.Compile
module Flat = Asim_flat.Flat
module Jit = Asim_jit.Jit
module Tiered = Asim_tiered.Tiered
module Par = Asim_par.Par
module Prof = Asim_prof.Prof
module Opt = Asim_opt.Opt

module Specs : module type of Specs
(** Embedded example specifications. *)

(** Which simulation engine to use.  [Interpreter] is the ASIM baseline;
    [Compiled] is the ASIM II contribution; [FlatKernel] is the int-coded
    flat program with activity-driven scheduling ({!Flat}); [Native] is the
    Dynlink-JIT over the codegen backend ({!Jit} — needs an OCaml toolchain
    on PATH); [TieredEngine] starts on the flat kernel and hot-swaps to the
    native engine at a cycle boundary once a background compile finishes
    ({!Tiered} — degrades to flat-only without a toolchain);
    [Partitioned] is the flat kernel partitioned across domains and run
    bulk-synchronously ({!Par} — domain count from [?domains], then
    [ASIM_PAR_DOMAINS], then the core count). *)
type engine =
  | Interpreter
  | Compiled
  | FlatKernel
  | Native
  | TieredEngine
  | Partitioned

val engine_of_string : string -> engine option
(** ["interp"]/["asim"], ["compiled"]/["asim2"], ["flat"],
    ["native"]/["jit"], ["tiered"] and ["par"]/["bsp"]
    (case-insensitive). *)

val engine_to_string : engine -> string

val load_string : string -> Analysis.t
(** Parse and analyze a specification source.  Raises {!Error.Error}. *)

val load_file : string -> Analysis.t

val machine :
  ?config:Machine.config ->
  ?engine:engine ->
  ?optimize:bool ->
  ?opt:Opt.level ->
  ?schedule:Flat.schedule ->
  ?tracer:Asim_obs.Tracer.t ->
  ?prof:Prof.t ->
  ?domains:int ->
  ?par_costs:(string * float) list ->
  Analysis.t ->
  Machine.t
(** Instantiate a runnable machine.  Defaults: [Compiled] engine, paper
    optimizations on, {!Machine.default_config}.  [opt] runs the {!Opt}
    middle-end over the analysis before the engine is built (default: no
    middle-end, i.e. [O0]) — every engine consumes the rewritten spec;
    fault-plan targets from [config] are kept verbatim.  [optimize]
    applies to the [Compiled] engine's own §4.4 closure optimizations only;
    [schedule] and [tracer] to [FlatKernel] only;
    [domains] and [par_costs] (a measured per-component cost model for the
    partitioner) to [Partitioned] only.  [prof] attaches an {!Prof} profile
    to any engine except [Native] (whose generated plugin carries no
    counters) and [Partitioned] (whose counters would race across domains)
    — requesting either raises {!Error.Error}; a profiled [TieredEngine]
    run is pinned to the instrumented flat kernel. *)

val run_string :
  ?config:Machine.config -> ?engine:engine -> ?cycles:int -> string -> Machine.t
(** Convenience: load, build, and run.  The cycle count is [cycles] if given,
    else the spec's [= N], else 0 steps.  Returns the machine (stats, cells
    and outputs are inspectable afterwards). *)

val run_file :
  ?config:Machine.config -> ?engine:engine -> ?cycles:int -> string -> Machine.t
