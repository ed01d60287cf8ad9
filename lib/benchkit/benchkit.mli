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
    — the steady state the content-addressed cache buys across runs.

    Besides the engines, it records the middle-end's per-pass ablation
    and the front end's per-stage times at 1k/10k/100k components
    ({!frontend}). *)

type engine_run = {
  engine : string;  (** oracle engine name, e.g. ["flat"] *)
  build_s : float;  (** seconds to construct the machine *)
  wall_s : float;  (** best-of-reps seconds for the full cycle budget *)
  ns_per_cycle : float;
  compiler : string option;
      (** the toolchain that produced the engine's code — the probed
          compiler and its version for ["native"], [None] otherwise *)
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

(** One stage of the front-end figure. *)
type frontend_stage = {
  fs_stage : string;  (** ["parse"], ["analyze"], ["optimize"] or ["flat_build"] *)
  fs_ms : float list;  (** min-of-reps milliseconds, one per size *)
  fs_exponent : float;
      (** least-squares slope of log time against log components: 1.0 is
          linear *)
}

(** The front end at scale: parse, analyze, [-O2] optimize and flat build
    of generated meshes at 1k/10k/100k components, timed from the mesh's
    pretty-printed source. *)
type frontend = {
  fe_workload : string;
  fe_components : int list;  (** the sizes, ascending *)
  fe_reps : int;  (** at least 3, whatever [reps] the harness ran with *)
  fe_cores_online : int;
  fe_stages : frontend_stage list;
}

type t = {
  cycles : int;
  reps : int;
  cores_online : int;
  workloads : workload list;
  opt_ablation : opt_ablation list;
  frontend : frontend;
}

val run : ?cycles:int -> ?reps:int -> ?check_cycles:int -> unit -> t
(** Run the harness.  [cycles] is the per-run budget (default: the sieve's
    5545 — both workloads park in halt spins, so any budget is safe);
    [reps] timed repetitions per engine, best kept (default 3);
    [check_cycles] the differential-oracle budget (default 300).  The
    10k-component opt-ablation workloads run their generated specs' own
    200 cycles. *)

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
(** All workloads passed the differential check and every opt-ablation
    workload stayed in lockstep across [-O0]/[-O2]. *)

val table : t -> string
(** Human-readable report, one block per workload. *)

val to_json : t -> Asim_batch.Json.t
(** The [BENCH_engines.json] document: per-workload engine rows plus the
    derived ratios, and where the paper's Figure 5.1 20x interp-vs-compiled
    gap lands here. *)

val write_json : t -> path:string -> unit
