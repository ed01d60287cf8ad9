(* The single-run workloads: one spec from text to final state, repeated.

   One repetition calls the public pipeline directly — Parser.parse_string,
   Analysis.analyze, Opt.run_result at -O2, Asim.machine on the flat kernel,
   Machine.run — and takes a timestamp between consecutive calls, so the
   four set-up layers add up to the set-up time exactly.  A traced
   repetition wraps the same calls in spans. *)

open Report
module Tracer = Asim_obs.Tracer
module Component = Asim.Component
module Machine = Asim.Machine

(* The state a run ends in: every component value (in spec order), every
   memory cell, every memory's access counters and the cycle count. *)
type snapshot = {
  values : int array;
  cells : int array;
  counters : (string * int list) list;
  cycle : int;
}

let snapshot (m : Machine.t) (comps : Component.t list) =
  let read_cells (c : Component.t) =
    match c.kind with
    | Component.Memory mem -> List.init mem.cells (m.read_cell c.name)
    | _ -> []
  in
  {
    values = Array.of_list (List.map (fun (c : Component.t) -> m.read c.name) comps);
    cells = Array.of_list (List.concat_map read_cells comps);
    counters =
      List.map
        (fun (n, (k : Asim.Stats.memory_counters)) ->
          (n, [ k.reads; k.writes; k.inputs; k.outputs ]))
        (Asim.Stats.per_memory m.stats);
    cycle = m.current_cycle ();
  }

(* The first difference between two snapshots, ignoring the values of
   components the optimizer proved unobservable ([dead]). *)
let diff ~dead comps a b =
  let dead = List.fold_left (fun s n -> Hashtbl.replace s n (); s) (Hashtbl.create 64) dead in
  let value_diff =
    List.find_map
      (fun (i, (c : Component.t)) ->
        if (not (Hashtbl.mem dead c.name)) && a.values.(i) <> b.values.(i) then
          Some (Printf.sprintf "component %s: %d vs %d" c.name a.values.(i) b.values.(i))
        else None)
      (List.mapi (fun i c -> (i, c)) comps)
  in
  match value_diff with
  | Some _ as d -> d
  | None ->
      if a.cycle <> b.cycle then Some (Printf.sprintf "cycle %d vs %d" a.cycle b.cycle)
      else if a.cells <> b.cells then Some "memory cells differ"
      else if a.counters <> b.counters then Some "memory access counters differ"
      else None

(* One repetition.  Times are scaled to the reference host (see
   [Report.stopwatch]); [raw_setup_s] and [raw_ttr_s] are unscaled. *)
type rep = {
  parse_s : float;
  analyze_s : float;
  opt_s : float;
  build_s : float;
  setup_s : float;
  sim_s : float;
  ttr_s : float;
  raw_setup_s : float;
  raw_ttr_s : float;
  slowdowns : float list;
  setup_alloc_w : float;
  opt_alloc_w : float;
  majors : int;
  stats : Asim.Opt.stats;
  dead : string list;
  final : snapshot;
}

let sim_chunks = 16

let rep ?(tracer = Tracer.null) ~text ~cycles () =
  Gc.compact ();
  let sw = stopwatch () in
  let layer name f = Report.time sw (fun () -> Tracer.span tracer name f) in
  let a0 = alloc_words () and maj0 = major_collections () in
  let spec, parse_raw, parse_s =
    layer "syntax.parse" (fun () -> Asim.Parser.parse_string text)
  in
  let analysis, analyze_raw, analyze_s =
    layer "analysis.analyze" (fun () -> Asim.Analysis.analyze spec)
  in
  let a2 = alloc_words () in
  let r, opt_raw, opt_s =
    layer "opt.optimize" (fun () -> Asim.Opt.run_result ~level:Asim.Opt.O2 analysis)
  in
  let opt_alloc_w = alloc_words () -. a2 in
  let m, build_raw, build_s =
    layer "flat.build" (fun () ->
        Asim.machine ~config:Machine.quiet_config ~engine:Asim.FlatKernel
          r.Asim.Opt.analysis)
  in
  let setup_alloc_w = alloc_words () -. a0 in
  (* Machine.run in [sim_chunks] calls, so the host is calibrated often
     enough to follow its drift; only the calls are timed. *)
  let chunk = max 1 (cycles / sim_chunks) in
  let rec simulate ran raw scaled =
    if ran >= cycles then (raw, scaled)
    else
      let n = min chunk (cycles - ran) in
      let (), r, s = layer "sim.run" (fun () -> Machine.run m ~cycles:n) in
      simulate (ran + n) (raw +. r) (scaled +. s)
  in
  let sim_raw, sim_s = simulate 0 0.0 0.0 in
  let majors = major_collections () - maj0 in
  let raw_setup_s = parse_raw +. analyze_raw +. opt_raw +. build_raw in
  let setup_s = parse_s +. analyze_s +. opt_s +. build_s in
  {
    parse_s;
    analyze_s;
    opt_s;
    build_s;
    setup_s;
    sim_s;
    ttr_s = setup_s +. sim_s;
    raw_setup_s;
    raw_ttr_s = raw_setup_s +. sim_raw;
    slowdowns = sw.slowdowns;
    setup_alloc_w;
    opt_alloc_w;
    majors;
    stats = r.stats;
    dead = r.dead;
    final = snapshot m spec.Asim.Spec.components;
  }

(* The number of repetitions in a run of [seconds]: a fixed amount of work,
   so that two versions of the program are compared over the same number of
   repetitions (the slowest of n grows with n). *)
let repetitions (w : Workload.single) ~seconds =
  max 3 (int_of_float (Float.round (w.reps_per_second *. float_of_int seconds)))

(* Cycles at which the reference engines are compared: powers of two up to
   the budget, then the budget.  The generated designs settle within a few
   dozen cycles, so a miscompile that only delays values shows early and
   is gone by the end. *)
let checkpoints budget =
  let rec go c acc = if c >= budget then List.rev (budget :: acc) else go (2 * c) (c :: acc) in
  go 1 []

(* Correctness gate.  On the raw spec at -O0, the closure-compiled engine and
   the flat engine run in lockstep with an untimed -O2 flat machine for the
   first [compiled_budget] cycles, compared at every checkpoint.  The -O0
   flat machine then carries on to the full cycle count, where every timed
   repetition's final state must match it.  Values of components the
   optimizer proved unobservable are masked.  Returns the number of failed
   repetitions and a note per failure. *)
let check (w : Workload.single) ~raw reps =
  let comps = raw.Asim.Analysis.spec.Asim.Spec.components in
  let build engine a = Asim.machine ~config:Machine.quiet_config ~engine a in
  let budget = min w.compiled_budget w.cycles in
  let r = Asim.Opt.run_result ~level:Asim.Opt.O2 raw in
  let compiled = build Asim.Compiled raw in
  let flat = build Asim.FlatKernel raw in
  let o2 = build Asim.FlatKernel r.analysis in
  let advance (m : Machine.t) c = Machine.run m ~cycles:(c - m.current_cycle ()) in
  let early =
    List.find_map
      (fun c ->
        List.iter (fun m -> advance m c) [ compiled; flat; o2 ];
        let want = snapshot compiled comps in
        match diff ~dead:[] comps (snapshot flat comps) want with
        | Some d -> Some (Printf.sprintf "-O0 flat vs -O0 compiled at cycle %d: %s" c d)
        | None ->
            Option.map (Printf.sprintf "-O2 flat vs -O0 compiled at cycle %d: %s" c)
              (diff ~dead:r.dead comps (snapshot o2 comps) want))
      (checkpoints budget)
  in
  advance flat w.cycles;
  let reference = snapshot flat comps in
  let notes =
    List.filter_map
      (fun (i, r) ->
        Option.map
          (Printf.sprintf "CHECK FAILED rep %d: -O2 flat vs -O0 flat at cycle %d: %s" i
             w.cycles)
          (diff ~dead:r.dead comps r.final reference))
      (List.mapi (fun i r -> (i, r)) reps)
  in
  match early with
  | Some d -> (List.length reps, ("CHECK FAILED: " ^ d) :: notes)
  | None -> (List.length notes, notes)

let budget_note (w : Workload.single) =
  Printf.sprintf
    "%s (%d components), %d cycles; check: compiled -O0 vs flat -O0 and -O2 at cycles \
     1, 2, 4, ... %d, flat -O0 vs every timed -O2 run at %d"
    (Workload.shape_to_string w.shape) (Workload.components w.shape) w.cycles
    (min w.compiled_budget w.cycles) w.cycles

(* A "job" on these workloads is one repetition. *)
let e2e_values ~cycles ~rss reps =
  let ttr = List.map (fun r -> r.ttr_s) reps in
  [
    ("setup_s", median (List.map (fun r -> r.setup_s) reps));
    ("sim_cycles_per_s", float_of_int cycles /. median (List.map (fun r -> r.sim_s) reps));
    ("time_to_result_s", median ttr);
    ("peak_rss_mb", rss);
    ("jobs_per_s", float_of_int (List.length reps) /. sum ttr);
    ("latency_p50_ms", 1000.0 *. median ttr);
    ("latency_p99_ms", 1000.0 *. percentile ttr 99.0);
  ]

let raw_values reps =
  [
    ("setup_s", median (List.map (fun r -> r.raw_setup_s) reps));
    ("time_to_result_s", median (List.map (fun r -> r.raw_ttr_s) reps));
  ]

let slowdown_value reps = ("host.slowdown", median (List.concat_map (fun r -> r.slowdowns) reps))

(* The repetition whose set-up time is the median (lower middle). *)
let median_rep reps =
  let a = Array.of_list reps in
  Array.sort (fun x y -> compare x.setup_s y.setup_s) a;
  a.((Array.length a - 1) / 2)

let exponent ~full ~small =
  if full > 0.0 && small > 0.0 then log (full /. small) /. log 10.0 else 0.0

(* Per-pass optimizer cost: the time of each cumulative pass prefix minus
   the time of the prefix before it.  Also returns the -O2 result. *)
let pass_costs ~tracer raw =
  let n = List.length Asim.Opt.all_passes in
  let last = ref None in
  let timed k =
    let passes = List.filteri (fun i _ -> i < k) Asim.Opt.all_passes in
    Gc.compact ();
    let sw = stopwatch () in
    let r, _, t =
      Report.time sw (fun () ->
          Tracer.span tracer (Printf.sprintf "opt.prefix.%d" k) (fun () ->
              Asim.Opt.run_result ~passes raw))
    in
    if k = n then last := Some r;
    t
  in
  let times = List.init n (fun i -> timed (i + 1)) in
  let costs =
    List.mapi
      (fun i (p, t) ->
        let before = if i = 0 then 0.0 else List.nth times (i - 1) in
        (Printf.sprintf "opt.pass.%s_s" (Asim.Opt.pass_to_string p), t -. before))
      (List.combine Asim.Opt.all_passes times)
  in
  (costs, Option.get !last)

(* Evaluations per combinational component per cycle under the activity
   schedule, over the workload's full cycle count. *)
let eval_ratio ~cycles analysis =
  let m, counts =
    Asim.Flat.create_debug ~config:Machine.quiet_config analysis
  in
  Machine.run m ~cycles;
  let counts = counts () in
  let evals = List.fold_left (fun acc (_, n) -> acc + n) 0 counts in
  float_of_int evals /. float_of_int (max 1 (List.length counts * cycles))

let layer_values (w : Workload.single) ~text ~small_text ~raw ~tracer ~untraced ~traced =
  let m = median_rep traced in
  let pick f = List.map f traced in
  let costs, o2 = pass_costs ~tracer raw in
  let program_words =
    float_of_int (Asim.Flat.program_size o2.Asim.Opt.analysis)
  in
  let ratio =
    Tracer.span tracer "flat.eval_ratio" (fun () ->
        eval_ratio ~cycles:w.cycles o2.Asim.Opt.analysis)
  in
  let small = List.init 3 (fun _ -> rep ~text:small_text ~cycles:0 ()) in
  let scaling name f =
    (name, exponent ~full:(median (pick f)) ~small:(median (List.map f small)))
  in
  let sim_s = median (pick (fun r -> r.sim_s)) in
  let traced_ttr = median (pick (fun r -> r.ttr_s)) in
  let count x = float_of_int x in
  [
    ("syntax.parse_s", m.parse_s);
    ("syntax.mb_per_s", float_of_int (String.length text) /. m.parse_s /. 1e6);
    ("analysis.analyze_s", m.analyze_s);
    ("opt.optimize_s", m.opt_s);
    ("opt.alloc_mwords", m.opt_alloc_w /. 1e6);
  ]
  @ costs
  @ [
      ("opt.folded", count m.stats.folded);
      ("opt.stubbed", count m.stats.stubbed);
      ("opt.fused", count m.stats.fused);
      ("opt.narrowed", count m.stats.narrowed);
      ("opt.rewired", count m.stats.rewired);
      ("flat.build_s", m.build_s);
      ("flat.program_words", program_words);
      ("flat.eval_ratio", ratio);
      ("sim.simulate_s", sim_s);
      ("sim.ns_per_cycle", sim_s /. float_of_int w.cycles *. 1e9);
      ("gc.setup_alloc_mwords", m.setup_alloc_w /. 1e6);
      ("gc.major_collections", count m.majors);
      scaling "syntax.scaling_exp" (fun r -> r.parse_s);
      scaling "analysis.scaling_exp" (fun r -> r.analyze_s);
      scaling "opt.scaling_exp" (fun r -> r.opt_s);
      scaling "flat.build_scaling_exp" (fun r -> r.build_s);
      ("traced.setup_s", m.setup_s);
      ("traced.time_to_result_s", traced_ttr);
      ("traced.overhead_s", traced_ttr -. median (List.map (fun r -> r.ttr_s) untraced));
      slowdown_value (untraced @ traced);
    ]

let run (w : Workload.single) ~seed ~seconds ~trace ~dir ~trace_out =
  let text = Workload.read_file (Workload.spec_file ~dir ~name:w.name ~seed ~small:false) in
  (* the raw spec, analyzed once more outside any timing, for the checks *)
  let raw () = Asim.Analysis.analyze (Asim.Parser.parse_string text) in
  let outcome =
    if not trace then begin
      let reps =
        List.init (repetitions w ~seconds) (fun _ -> rep ~text ~cycles:w.cycles ())
      in
      let rss = peak_rss_mb () in
      let failed, notes = check w ~raw:(raw ()) reps in
      {
        attempted = List.length reps;
        failed;
        values = e2e_values ~cycles:w.cycles ~rss reps @ [ slowdown_value reps ];
        raw = raw_values reps;
        notes = budget_note w :: notes;
      }
    end
    else begin
      let small_text =
        Workload.read_file (Workload.spec_file ~dir ~name:w.name ~seed ~small:true)
      in
      let tracer = Tracer.create () in
      (* untraced and traced repetitions alternate, so drift hits both *)
      let both =
        List.init (2 * repetitions w ~seconds) (fun n ->
            let tracer = if n mod 2 = 0 then Tracer.null else tracer in
            (n mod 2 = 1, rep ~tracer ~text ~cycles:w.cycles ()))
      in
      let untraced = List.filter_map (fun (t, r) -> if t then None else Some r) both in
      let traced = List.filter_map (fun (t, r) -> if t then Some r else None) both in
      let reps = List.map snd both in
      let raw = raw () in
      let layers = layer_values w ~text ~small_text ~raw ~tracer ~untraced ~traced in
      let failed, notes = check w ~raw reps in
      Tracer.write tracer trace_out;
      {
        attempted = List.length reps;
        failed;
        values =
          e2e_values ~cycles:w.cycles ~rss:(peak_rss_mb ()) untraced @ layers;
        raw = raw_values untraced;
        notes = budget_note w :: ("chrome trace: " ^ trace_out) :: notes;
      }
    end
  in
  Report.emit ~workload:w.name ~seed ~trace outcome
