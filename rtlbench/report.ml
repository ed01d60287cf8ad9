(* Sample statistics, host probes and the result line. *)

let now = Unix.gettimeofday

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

let median = function
  | [] -> 0.0
  | xs ->
      let a = sorted xs in
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* Host speed.  On a shared host the speed of this process drifts by up to
   2x within seconds, and wall-clock times drift with it.  So every timed
   interval is bracketed by a fixed calibration load and divided by the
   host's slowdown at that moment: the calibration's time then over its
   time on the reference host.  The load is the benchmark's own code, so a
   change to the program cannot move it: a small bytecode interpreter over
   int arrays plus a pointer chase through a 2 MB permutation, allocating
   nothing.  Of the loads tried (integer loop, pointer chase, interpreter,
   allocation), this pair tracked the drift of the flat kernel, the parser
   and the optimizer best. *)
let reference_calibration_s = 0.0200

let calibration_data =
  lazy
    (let st = Random.State.make [| 0xca1 |] in
     let n = 1 lsl 18 in
     let p = Array.init n Fun.id in
     for i = n - 1 downto 1 do
       let j = Random.State.int st (i + 1) in
       let x = p.(i) in
       p.(i) <- p.(j);
       p.(j) <- x
     done;
     let next = Array.make n 0 in
     Array.iteri (fun i x -> next.(x) <- p.((i + 1) mod n)) p;
     (* instructions of four ints: opcode, two source registers, target *)
     let code =
       Array.init (4 * 2048) (fun i ->
           if i mod 4 = 0 then Random.State.int st 4 else Random.State.int st 512)
     in
     (code, Array.make 512 1, next))

let calibrate () =
  let code, regs, next = Lazy.force calibration_data in
  let t0 = now () in
  for _ = 1 to 800 do
    let pc = ref 0 in
    while !pc < Array.length code do
      let a = Array.unsafe_get regs (Array.unsafe_get code (!pc + 1))
      and b = Array.unsafe_get regs (Array.unsafe_get code (!pc + 2)) in
      let v =
        match Array.unsafe_get code !pc with
        | 0 -> a + b
        | 1 -> a land b
        | 2 -> (a lsl 1) lor (b land 1)
        | _ -> if a > b then a else b
      in
      Array.unsafe_set regs (Array.unsafe_get code (!pc + 3)) (v land 0xffff);
      pc := !pc + 4
    done
  done;
  let x = ref (regs.(0) land 0xffff) in
  for _ = 1 to 400_000 do
    x := Array.unsafe_get next !x
  done;
  ignore (Sys.opaque_identity !x);
  now () -. t0

(* Times consecutive intervals, each bracketed by calibrations.  [time]
   returns the result, the raw seconds and the seconds scaled to the
   reference host. *)
type stopwatch = { mutable last : float; mutable slowdowns : float list }

let stopwatch () = { last = calibrate (); slowdowns = [] }

let slowdown sw =
  let c = calibrate () in
  let s = (sw.last +. c) /. 2.0 /. reference_calibration_s in
  sw.last <- c;
  sw.slowdowns <- s :: sw.slowdowns;
  s

let time sw f =
  let t0 = now () in
  let x = f () in
  let raw = now () -. t0 in
  (x, raw, raw /. slowdown sw)

(* Nearest rank, p in 0..100. *)
let percentile xs p = Asim_batch.Metrics.percentile (sorted xs) p

let sum = List.fold_left ( +. ) 0.0

(* Peak resident set of this process so far, in MB. *)
let peak_rss_mb () =
  let ic = open_in "/proc/self/status" in
  let rec scan () =
    match input_line ic with
    | line when String.length line > 6 && String.sub line 0 6 = "VmHWM:" ->
        Scanf.sscanf (String.sub line 6 (String.length line - 6)) " %d" Fun.id
    | _ -> scan ()
    | exception End_of_file -> 0
  in
  let kb = Fun.protect ~finally:(fun () -> close_in ic) scan in
  float_of_int kb /. 1024.0

(* Words allocated by this domain since it started. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

let major_collections () = (Gc.quick_stat ()).Gc.major_collections

(* Every metric a run reports, in BENCHMARK.json order.  [e2e] names the
   end-to-end metrics (printed with --trace 0); the rest are per-layer
   (printed with --trace 1). *)
let e2e =
  [
    ("setup_s", "s");
    ("sim_cycles_per_s", "cycles/s");
    ("time_to_result_s", "s");
    ("peak_rss_mb", "MB");
    ("jobs_per_s", "1/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
  ]

let layer =
  [
    ("syntax.parse_s", "s");
    ("syntax.mb_per_s", "MB/s");
    ("analysis.analyze_s", "s");
    ("opt.optimize_s", "s");
    ("opt.alloc_mwords", "Mwords");
    ("opt.pass.constprop_s", "s");
    ("opt.pass.fuse_s", "s");
    ("opt.pass.narrow_s", "s");
    ("opt.pass.cse_s", "s");
    ("opt.pass.dce_s", "s");
    ("opt.pass.schedule_s", "s");
    ("opt.folded", "count");
    ("opt.stubbed", "count");
    ("opt.fused", "count");
    ("opt.narrowed", "count");
    ("opt.rewired", "count");
    ("flat.build_s", "s");
    ("flat.program_words", "words");
    ("flat.eval_ratio", "ratio");
    ("sim.simulate_s", "s");
    ("sim.ns_per_cycle", "ns");
    ("gc.setup_alloc_mwords", "Mwords");
    ("gc.major_collections", "count");
    ("batch.execute_p50_ms", "ms");
    ("batch.execute_p99_ms", "ms");
    ("batch.cache_hit_ratio", "ratio");
    ("serve.wait_p50_ms", "ms");
    ("serve.wait_p99_ms", "ms");
    ("serve.latency_hit_p50_ms", "ms");
    ("serve.latency_miss_p50_ms", "ms");
    ("serve.busiest_shard_share", "ratio");
    ("serve.overloaded", "count");
    ("serve.rejected", "count");
    ("syntax.scaling_exp", "exponent");
    ("analysis.scaling_exp", "exponent");
    ("opt.scaling_exp", "exponent");
    ("flat.build_scaling_exp", "exponent");
    ("traced.setup_s", "s");
    ("traced.time_to_result_s", "s");
    ("traced.overhead_s", "s");
    ("host.slowdown", "ratio");
  ]

type outcome = {
  attempted : int;
  failed : int;
  values : (string * float) list;
      (** measured metrics; a per-layer metric of a layer the workload does
          not pass through is absent and reported as 0 *)
  raw : (string * float) list;
      (** unscaled wall-clock figures, printed in the table only *)
  notes : string list;  (** context lines printed above the table *)
}

let json_number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else if Float.is_finite x then Printf.sprintf "%.17g" x
  else "0"

(* Print a human-readable table (every metric the run measured, plus the
   error rate), then the result line with exactly the metrics of the
   selected set.  Returns the exit code. *)
let emit ~workload ~seed ~trace o =
  let set = if trace then layer else e2e in
  let value name = Option.value (List.assoc_opt name o.values) ~default:0.0 in
  Printf.printf "# workload %s  seed %d  trace %d  cores_online %d  ocaml %s\n"
    workload seed (if trace then 1 else 0) (Domain.recommended_domain_count ())
    Sys.ocaml_version;
  List.iter (Printf.printf "# %s\n") o.notes;
  List.iter
    (fun (name, unit) ->
      if List.mem_assoc name o.values then
        Printf.printf "%-28s %16.6g %s\n" name (value name) unit)
    (e2e @ layer);
  List.iter (fun (name, v) -> Printf.printf "%-28s %16.6g (unscaled)\n" name v) o.raw;
  let error_rate =
    float_of_int o.failed /. float_of_int (max 1 o.attempted)
  in
  Printf.printf "%-28s %16.6g %s\n" "error_rate" error_rate "ratio";
  let correct = o.failed = 0 in
  let metrics =
    List.map
      (fun (name, unit) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
          (json_number (value name)) unit)
      set
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct o.attempted o.failed (String.concat ", " metrics);
  if correct then 0 else 1
