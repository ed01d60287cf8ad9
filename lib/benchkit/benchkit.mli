(** The engine-comparison harness behind [asim bench] and
    [BENCH_engines.json].

    Runs the repo's engines (interpreter, closure compiler, lowered-IR
    evaluator, flat kernel, the flat kernel's full-re-evaluation ablation,
    and — when an OCaml toolchain is on PATH — the native Dynlink-JIT
    engine) over two fixed workloads — the Itty Bitty Stack Machine
    running the sieve of Eratosthenes (the paper's Figure 5.1
    configuration) and the Appendix F tiny computer running its demo
    program — and reports wall-clock per run, ns/cycle, raw and
    prep-inclusive speedups versus the interpreter (the paper's two
    Figure 5.1 columns), the cycle count at which each engine's prep
    amortizes, the activity-scheduling skip rate, and a
    differential-oracle agreement check, so a performance claim and its
    correctness witness travel together.

    The native engine is benched against a fresh empty artifact cache, so
    its [build_s] is an honest cold generate+compile+dynlink.

    The tiered engine gets two rows.  ["tiered"] is fully cold on every
    rep (empty artifact cache and in-process memo, default [Auto] policy):
    the acceptance claim tiered ≈ max(flat, native) including prep, as a
    user hits it the first time.  ["tiered-warm"] (toolchain only) reuses
    the artifact the native row compiled, so the machine swaps at cycle 0
    — the steady state the content-addressed cache buys across runs. *)

type engine_run = {
  engine : string;  (** oracle engine name, e.g. ["flat"] *)
  build_s : float;  (** seconds to construct the machine *)
  wall_s : float;  (** best-of-reps seconds for the full cycle budget *)
  ns_per_cycle : float;
  compiler : string option;
      (** the toolchain that produced the engine's code — the probed
          compiler and its version for ["native"], [None] otherwise *)
  domains : int option;
      (** domain count for the ["par"] row (its default — ASIM_PAR_DOMAINS,
          else the core count), [None] for single-domain engines *)
}

type profiling = {
  prof_cycles : int;
      (** dedicated budget for the profiling-overhead row — the workload
          budget with a 50k-cycle floor, long enough for the percentage
          to be stable *)
  off_ns_per_cycle : float;  (** flat kernel, no profiler attached *)
  on_ns_per_cycle : float;  (** flat kernel with per-component counters *)
  overhead : float;
      (** [(on - off) / off] — the cost of leaving counters on, as a
          fraction; the driver's ceiling is 0.05 *)
  off_zero_alloc : bool;
      (** the counters-off hot loop allocated nothing beyond test_flat's
          fixed allowance — the witness that profiling off costs nothing *)
}

type workload = {
  name : string;
  cycles : int;
  components : int;
  flat_words : int;  (** flat-program size in instruction words *)
  flat_skip_rate : float;
      (** fraction of combinational evaluations the activity scheduler
          skipped over the run, in [0, 1] *)
  agreement : string option;
      (** [None] when every engine agreed on the differential check;
          [Some divergence] otherwise *)
  tiered_swap : string;
      (** how the cold tiered row's swap resolved at this cycle budget
          (["pending"] below the [Auto] spawn threshold, ["swapped"] past
          it, ["unavailable"] without a toolchain) *)
  engines : engine_run list;
  profiling : profiling;
      (** flat-kernel counters-on-vs-off overhead (its own cycle budget,
          min of at least 3 reps a side) plus the counters-off
          zero-allocation witness *)
}

(** One row of the partitioned engine's scaling curve. *)
type par_run = {
  pr_domains : int;
  pr_build_s : float;
  pr_wall_s : float;
  pr_ns_per_cycle : float;
  pr_ngroups : int;  (** barriers per cycle under this partitioning *)
  pr_cut : int;  (** cross-partition combinational edges *)
  pr_speedup_vs_par1 : float;
  pr_scaling_valid : bool;
      (** false when the host has fewer cores than this row has domains —
          the timing then measures the OS time-slicing domains, not the
          algorithm, and must not be read as a speedup *)
}

(** The partitioned engine's figure: flat baseline plus par at 1/2/4/8
    domains over a generated 10k-component spec, with the par@1-vs-flat
    overhead ablation (recorded even when unfavourable), the
    [codegen.flat.compile] span for the spec, and a short flat-vs-par@4
    lockstep check as the correctness witness. *)
type par_scaling = {
  ps_workload : string;
  ps_components : int;
  ps_cycles : int;
  ps_cores_online : int;  (** [Domain.recommended_domain_count ()] *)
  ps_compile_span_ms : float;
      (** duration of the flat compiler's [codegen.flat.compile] span on
          this spec *)
  ps_flat_wall_s : float;
  ps_par1_overhead_vs_flat : float;  (** par@1 wall / flat wall *)
  ps_lockstep : bool;
  ps_runs : par_run list;
}

(** One cumulative step of the middle-end ablation. *)
type opt_step = {
  os_label : string;  (** ["O0"], then ["+constprop"], ["+fuse"], ... *)
  os_passes : string list;  (** the cumulative pass set this step ran *)
  os_flat_words : int;
  os_delta_words : int;
      (** flat words saved versus the previous step — signed, so a pass
          with no (or negative) gain on this workload is reported, not
          dropped *)
  os_flat_ns_per_cycle : float;
}

(** The optimizing middle-end's figure: each {!Asim.Opt} pass added
    cumulatively in pipeline order over a generated 10k-component spec,
    measured as flat program size and flat ns/cycle per step, plus the
    native engine at the [-O0]/[-O2] endpoints (separate plugin compiles —
    the optimizer changes the generated source), with a flat [-O2]-vs-[-O0]
    lockstep check over the live components as the correctness witness. *)
type opt_ablation = {
  oa_workload : string;
  oa_components : int;
  oa_cycles : int;
  oa_cores_online : int;
  oa_dead_components : int;  (** components DCE stubbed at [-O2] *)
  oa_steps : opt_step list;  (** first step is the [-O0] baseline *)
  oa_flat_speedup_o2_vs_o0 : float;
  oa_native_o0_ns : float option;  (** [None] without a toolchain *)
  oa_native_o2_ns : float option;
  oa_native_speedup_o2_vs_o0 : float option;
  oa_lockstep : bool;
}

type t = {
  cycles : int;
  reps : int;
  cores_online : int;
  workloads : workload list;
  par_scaling : par_scaling list;
  opt_ablation : opt_ablation list;
}

val run :
  ?cycles:int -> ?reps:int -> ?check_cycles:int -> ?par_cycles:int -> unit -> t
(** Run the harness.  [cycles] is the per-run budget (default: the sieve's
    5545 — both workloads park in halt spins, so any budget is safe);
    [reps] timed repetitions per engine, best kept (default 3);
    [check_cycles] the differential-oracle budget (default 300);
    [par_cycles] the budget for the 10k-component par-scaling workloads
    (default 200 — each cycle there is ~250x a sieve cycle). *)

val ratio : workload -> string -> string -> float option
(** [ratio w a b] is [wall(a) /. wall(b)] — how many times faster engine
    [b] is than engine [a] on this workload; [None] if either is absent. *)

val incl_prep_ratio : workload -> string -> float option
(** Speedup of the engine over the interpreter once machine-construction
    time (for ["native"]: codegen, compile and dynlink) is charged to
    both sides — Figure 5.1's second column. *)

val amortization_cycles : workload -> string -> float option
(** Cycles after which the engine's extra prep over the interpreter is
    repaid by its faster per-cycle rate.  [Some 0.] when prep is not more
    expensive; [None] when the engine is no faster per cycle. *)

val tiered_vs_best : workload -> float option
(** The cold tiered row's prep-inclusive speedup divided by the better of
    flat's and native's — tiered ≈ max(flat, native) as a single number,
    with 0.95 the accepted floor. *)

val agree : t -> bool
(** All workloads passed the differential check, every par-scaling
    workload stayed in lockstep with flat, and every opt-ablation workload
    stayed in lockstep across [-O0]/[-O2]. *)

val table : t -> string
(** Human-readable report, one block per workload. *)

val to_json : t -> Asim_batch.Json.t
(** The [BENCH_engines.json] document: per-workload engine rows plus the
    derived ratios, and where the paper's Figure 5.1 20x interp-vs-compiled
    gap lands here. *)

val write_json : t -> path:string -> unit
