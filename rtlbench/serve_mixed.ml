(* serve-mixed: one in-process Server driven through Server.attach over a
   pipe pair by a closed-loop client with a fixed window of outstanding
   jobs.  Every reply must arrive exactly once (by index) and its outputs
   must equal a reference computed here by the flat engine at -O0 (the
   service runs its default engine, compiled, at its default -O2). *)

open Report
module Json = Asim_batch.Json
module Proto = Asim_batch.Proto
module Server = Asim_serve.Server
module Router = Asim_serve.Router
module Tracer = Asim_obs.Tracer

type job = { id : string; line : string; source : Proto.source }

let job_of_line line =
  let j = Json.parse line in
  let field k = Option.bind (Json.member k j) Json.to_string_opt in
  let id = Option.get (field "id") in
  match (field "example", field "spec") with
  | Some name, _ -> { id; line; source = Proto.Example name }
  | None, Some text -> { id; line; source = Proto.Inline text }
  | None, None -> failwith ("job without a source: " ^ id)

let source_key = function
  | Proto.Example name -> "example:" ^ name
  | Proto.Inline text -> "inline:" ^ Digest.to_hex (Digest.string text)
  | Proto.File _ | Proto.Hash _ -> invalid_arg "source_key"

let source_text = function
  | Proto.Example name -> List.assoc name Asim.Specs.all
  | Proto.Inline text -> text
  | Proto.File _ | Proto.Hash _ -> invalid_arg "source_text"

(* A run that has not finished by then has lost replies: give up while the
   process can still report within its time limit. *)
let deadline = now () +. 150.0

exception Stalled

(* One client session against a fresh server. *)
type conn = {
  server : Server.t;
  req : out_channel;
  req_r : Unix.file_descr;
  rep_r : Unix.file_descr;
  rep_w : Unix.file_descr;
  session : Thread.t;
  lock : Mutex.t;
  arrived : Condition.t;
  replies : (string * float) Queue.t;  (** reply line, receive time *)
  mutable received : int;
  mutable sent : int;
  mutable reader : Thread.t option;
  mutable open_ : bool;
}

let connect ~tracer =
  let config = { Server.default_config with shards = Workload.serve_shards; tracer } in
  let server = Server.create ~config () in
  let req_r, req_w = Unix.pipe ~cloexec:true () in
  let rep_r, rep_w = Unix.pipe ~cloexec:true () in
  let c =
    {
      server;
      req = Unix.out_channel_of_descr req_w;
      req_r;
      rep_r;
      rep_w;
      session = Thread.create (fun () -> Server.attach server req_r rep_w) ();
      lock = Mutex.create ();
      arrived = Condition.create ();
      replies = Queue.create ();
      received = 0;
      sent = 0;
      reader = None;
      open_ = true;
    }
  in
  let read () =
    let ic = Unix.in_channel_of_descr rep_r in
    try
      while true do
        let line = input_line ic in
        let t = now () in
        Mutex.lock c.lock;
        Queue.push (line, t) c.replies;
        c.received <- c.received + 1;
        Condition.broadcast c.arrived;
        Mutex.unlock c.lock
      done
    with End_of_file | Sys_error _ -> ()
  in
  c.reader <- Some (Thread.create read ());
  (* wakes waiters now and then so they notice the deadline *)
  ignore
    (Thread.create
       (fun () ->
         while c.open_ do
           Thread.delay 0.1;
           Mutex.lock c.lock;
           Condition.broadcast c.arrived;
           Mutex.unlock c.lock
         done)
       ());
  c

let wait_until c ready =
  Mutex.lock c.lock;
  while not (ready ()) do
    if now () > deadline then begin
      Mutex.unlock c.lock;
      raise Stalled
    end;
    Condition.wait c.arrived c.lock
  done;
  Mutex.unlock c.lock

(* Send one request line once fewer than the window are outstanding;
   returns its index on the connection and its send time. *)
let send c line =
  wait_until c (fun () -> c.sent - c.received < Workload.serve_window);
  let index = c.sent in
  c.sent <- c.sent + 1;
  let t = now () in
  output_string c.req line;
  output_char c.req '\n';
  flush c.req;
  (index, t)

let wait_all c = wait_until c (fun () -> c.received >= c.sent)

let close c =
  close_out c.req;
  Thread.join c.session;
  Unix.close c.rep_w;
  Option.iter Thread.join c.reader;
  c.open_ <- false;
  Server.drain c.server;
  Unix.close c.req_r;
  Unix.close c.rep_r

(* [block] is the stream block the job was sent in, -1 for set-up jobs. *)
type sent = { job : job; index : int; t_send : float; block : int; seen_before : bool }

(* Everything one server did.  The stream is sent in blocks of
   [Workload.serve_block] jobs; after each block the client lets the window
   drain and calibrates the host ([Report.stopwatch]), so every block has
   its own slowdown. *)
type session = {
  setup_s : float;  (** scaled; create + one cold pass over the examples *)
  raw_setup_s : float;
  sends : (int, sent) Hashtbl.t;
  replies : (string * float) list;  (** reply line, receive time *)
  slowdowns : float array;  (** by block *)
  cache_hits : int;  (** during the stream *)
  cache_misses : int;
  majors : int;
}

let warm_jobs =
  List.map
    (fun (name, _) ->
      job_of_line
        (Workload.request ~id:("warm-" ^ name) ("example", Json.String name)))
    Asim.Specs.all

let rec blocks n = function
  | [] -> []
  | xs ->
      let block = List.filteri (fun i _ -> i < n) xs in
      block :: blocks n (List.filteri (fun i _ -> i >= n) xs)

(* Set up a server; with [stream], then send the stream through it.
   Returns the scaled and raw set-up times, and the session when streamed. *)
let session ~tracer ?stream () =
  let span name f = Tracer.span tracer name f in
  let sends = Hashtbl.create 4096 in
  let known = Hashtbl.create 64 in
  let submit c ~block job =
    let key = source_key job.source in
    let seen_before = Hashtbl.mem known key in
    Hashtbl.replace known key ();
    let index, t_send = send c job.line in
    Hashtbl.replace sends index { job; index; t_send; block; seen_before }
  in
  let sw = stopwatch () in
  let c, raw_setup_s, setup_s =
    Report.time sw (fun () ->
        span "client.setup" (fun () ->
            let c = connect ~tracer in
            List.iter (submit c ~block:(-1)) warm_jobs;
            wait_all c;
            c))
  in
  match stream with
  | None ->
      close c;
      (setup_s, raw_setup_s, None)
  | Some jobs ->
      let cache () = (Server.summary c.server).Asim_batch.Metrics.cache in
      let before = cache () in
      let maj0 = major_collections () in
      let slowdowns =
        span "client.stream" (fun () ->
            List.mapi
              (fun b block ->
                List.iter (submit c ~block:b) block;
                wait_all c;
                slowdown sw)
              (blocks Workload.serve_block jobs))
      in
      let majors = major_collections () - maj0 in
      let after = cache () in
      close c;
      ( setup_s,
        raw_setup_s,
        Some
          {
            setup_s;
            raw_setup_s;
            sends;
            replies = List.of_seq (Queue.to_seq c.replies);
            slowdowns = Array.of_list slowdowns;
            cache_hits = after.hits - before.hits;
            cache_misses = after.misses - before.misses;
            majors;
          } )

type reply = {
  r_sent : sent;
  r_latency_ms : float;
  r_status : string;
  r_elapsed_ms : float;
  r_cycles : int;
  r_t : float;
}

(* Account for every reply exactly once, check each against the reference,
   and return the stream's replies plus the number of failures and a note
   per failure. *)
let validate s =
  let refs = Hashtbl.create 64 in
  let reference source =
    let key = source_key source in
    match Hashtbl.find_opt refs key with
    | Some r -> r
    | None ->
        let a = Asim.load_string (source_text source) in
        let m =
          Asim.machine ~config:Asim.Machine.quiet_config ~engine:Asim.FlatKernel a
        in
        let cycles = Asim.Machine.spec_cycles m ~default:0 in
        Asim.Machine.run m ~cycles;
        let outputs =
          List.sort compare
            (List.map
               (fun (c : Asim.Component.t) -> (c.name, m.read c.name))
               a.spec.components)
        in
        Hashtbl.replace refs key (cycles, outputs);
        (cycles, outputs)
  in
  let seen = Hashtbl.create 4096 in
  let failures = ref [] in
  let fail msg = failures := msg :: !failures in
  let replies =
    List.filter_map
      (fun (line, t) ->
        let j = Json.parse line in
        let int k = Option.bind (Json.member k j) Json.to_int in
        let str k = Option.bind (Json.member k j) Json.to_string_opt in
        match Option.bind (int "index") (Hashtbl.find_opt s.sends) with
        | None ->
            fail ("reply for no request: " ^ String.sub line 0 (min 120 (String.length line)));
            None
        | Some sent when Hashtbl.mem seen sent.index ->
            fail (Printf.sprintf "duplicate reply for index %d" sent.index);
            None
        | Some sent ->
            Hashtbl.replace seen sent.index ();
            let status = Option.value (str "status") ~default:"?" in
            let cycles = Option.value (int "cycles") ~default:(-1) in
            (if str "id" <> Some sent.job.id then
               fail (Printf.sprintf "index %d answered with another id" sent.index)
             else if status <> "ok" then
               fail
                 (Printf.sprintf "job %s: status %s %s" sent.job.id status
                    (Option.value (str "error") ~default:""))
             else
               let want_cycles, want = reference sent.job.source in
               let got =
                 match Json.member "outputs" j with
                 | Some (Json.Obj kvs) ->
                     List.sort compare
                       (List.map (fun (k, v) -> (k, Option.value (Json.to_int v) ~default:min_int)) kvs)
                 | _ -> []
               in
               if cycles <> want_cycles || got <> want then
                 fail (Printf.sprintf "job %s: outputs differ from the -O0 flat reference" sent.job.id));
            Some
              {
                r_sent = sent;
                r_latency_ms = (t -. sent.t_send) *. 1000.0;
                r_status = status;
                r_elapsed_ms =
                  Option.value (Option.bind (Json.member "elapsed_ms" j) Json.to_float) ~default:0.0;
                r_cycles = cycles;
                r_t = t;
              })
      s.replies
  in
  Hashtbl.iter
    (fun index sent ->
      if not (Hashtbl.mem seen index) then fail ("no reply for job " ^ sent.job.id))
    s.sends;
  (List.filter (fun r -> r.r_sent.block >= 0) replies, List.rev !failures)

let slowdown_of s r = s.slowdowns.(r.r_sent.block)

(* Per block: (scaled, raw) seconds from its first send to its last reply. *)
let block_times s replies =
  let n = Array.length s.slowdowns in
  let first = Array.make n infinity and last = Array.make n 0.0 in
  List.iter
    (fun r ->
      let b = r.r_sent.block in
      first.(b) <- min first.(b) r.r_sent.t_send;
      last.(b) <- max last.(b) r.r_t)
    replies;
  List.init n (fun b ->
      let raw = Float.max 0.0 (last.(b) -. first.(b)) in
      (raw /. s.slowdowns.(b), raw))

(* Seconds to [serve_min_jobs] replies: the median over the stream's
   consecutive windows of that many jobs (calibration gaps excluded), so
   the first window, which also pays for the process heap growing, does
   not decide it alone.  Returns the scaled and the raw figure. *)
let time_to_result s replies =
  let k = Workload.serve_min_jobs / Workload.serve_block in
  let times = Array.of_list (block_times s replies) in
  let windows = max 1 (Array.length times / k) in
  let window w f =
    sum (List.init (min k (Array.length times)) (fun i -> f times.((w * k) + i)))
  in
  let med f = median (List.init windows (fun w -> window w f)) in
  (med fst, med snd)

let stream_values s replies =
  let ok = List.filter (fun r -> r.r_status = "ok") replies in
  let wall = sum (List.map fst (block_times s replies)) in
  let scaled f r = f r /. slowdown_of s r in
  let lat = List.map (scaled (fun r -> r.r_latency_ms)) replies in
  let exec = List.map (scaled (fun r -> r.r_elapsed_ms)) ok in
  let wait = List.map (scaled (fun r -> r.r_latency_ms -. r.r_elapsed_ms)) ok in
  let lat_where p =
    List.filter_map (fun r -> if p r then Some (scaled (fun r -> r.r_latency_ms) r) else None) replies
  in
  let shards = Array.make Workload.serve_shards 0 in
  List.iter
    (fun r ->
      let d = Router.digest_of_source r.r_sent.job.source in
      let i = Router.shard_of_digest ~shards:Workload.serve_shards d in
      shards.(i) <- shards.(i) + 1)
    replies;
  let count status =
    float_of_int (List.length (List.filter (fun r -> r.r_status = status) replies))
  in
  [
    ("sim_cycles_per_s", float_of_int (List.fold_left (fun a r -> a + r.r_cycles) 0 ok) /. wall);
    ("time_to_result_s", fst (time_to_result s replies));
    ("jobs_per_s", float_of_int (List.length ok) /. wall);
    ("latency_p50_ms", median lat);
    ("latency_p99_ms", percentile lat 99.0);
    ("batch.execute_p50_ms", median exec);
    ("batch.execute_p99_ms", percentile exec 99.0);
    ( "batch.cache_hit_ratio",
      float_of_int s.cache_hits /. float_of_int (max 1 (s.cache_hits + s.cache_misses)) );
    ("serve.wait_p50_ms", median wait);
    ("serve.wait_p99_ms", percentile wait 99.0);
    ("serve.latency_hit_p50_ms", median (lat_where (fun r -> r.r_sent.seen_before)));
    ("serve.latency_miss_p50_ms", median (lat_where (fun r -> not r.r_sent.seen_before)));
    ( "serve.busiest_shard_share",
      float_of_int (Array.fold_left max 0 shards) /. float_of_int (max 1 (List.length replies)) );
    ("serve.overloaded", count "overload");
    ("serve.rejected", count "rejected");
    ("gc.major_collections", float_of_int s.majors);
    ("host.slowdown", median (Array.to_list s.slowdowns));
  ]

let raw_values s replies =
  [
    ("time_to_result_s", snd (time_to_result s replies));
    ("latency_p50_ms", median (List.map (fun r -> r.r_latency_ms) replies));
  ]

(* Per-call front-end and simulate costs of the fresh (cache-missing) specs,
   read from the spans the service itself records under a tracer. *)
let span_values s tracer replies =
  let misses = Hashtbl.create 512 in
  List.iter
    (fun r ->
      if not r.r_sent.seen_before then
        Hashtbl.replace misses r.r_sent.job.id
          (String.length (source_text r.r_sent.job.source), slowdown_of s r))
    replies;
  let durations name =
    List.filter_map
      (fun (e : Tracer.event) ->
        match List.assoc_opt "id" e.args with
        | Some id when e.name = name && Hashtbl.mem misses id ->
            Some (id, e.dur_us /. 1e6 /. snd (Hashtbl.find misses id))
        | _ -> None)
      (Tracer.events tracer)
  in
  let med name = median (List.map snd (durations name)) in
  let cycles = Hashtbl.create 512 in
  List.iter (fun r -> Hashtbl.replace cycles r.r_sent.job.id r.r_cycles) replies;
  let parse = durations "pipeline.parse" in
  let bytes = List.fold_left (fun a (id, _) -> a + fst (Hashtbl.find misses id)) 0 parse in
  [
    ("syntax.parse_s", med "pipeline.parse");
    ("syntax.mb_per_s", float_of_int bytes /. sum (List.map snd parse) /. 1e6);
    ("analysis.analyze_s", med "pipeline.analyze");
    ("opt.optimize_s", med "pipeline.optimize");
    ("sim.simulate_s", med "pipeline.simulate");
    ( "sim.ns_per_cycle",
      median
        (List.map
           (fun (id, d) -> d /. float_of_int (max 1 (Hashtbl.find cycles id)) *. 1e9)
           (durations "pipeline.simulate")) );
  ]

let note =
  Printf.sprintf
    "%d shards, closed loop with %d outstanding jobs; 1 in 8 jobs a fresh ~2k-component \
     spec, the rest built-in examples; check: every reply once by index, outputs equal \
     to flat -O0"
    Workload.serve_shards Workload.serve_window

let run ~seed ~trace ~dir ~trace_out =
  let stream =
    Workload.read_file (Workload.jobs_file ~dir ~seed)
    |> String.split_on_char '\n'
    |> List.filter_map (fun l -> if l = "" then None else Some (job_of_line l))
  in
  let served ~tracer = match session ~tracer ~stream () with _, _, s -> Option.get s in
  try
    let outcome =
      if not trace then begin
        (* set-up is measured on fresh servers; the last one serves the stream *)
        let cold = List.init 14 (fun _ -> session ~tracer:Tracer.null ()) in
        let s = served ~tracer:Tracer.null in
        let rss = peak_rss_mb () in
        let replies, failures = validate s in
        let setups = s.setup_s :: List.map (fun (t, _, _) -> t) cold in
        let raw_setups = s.raw_setup_s :: List.map (fun (_, t, _) -> t) cold in
        {
          attempted = Hashtbl.length s.sends;
          failed = List.length failures;
          values =
            ("setup_s", median setups) :: ("peak_rss_mb", rss) :: stream_values s replies;
          raw = ("setup_s", median raw_setups) :: raw_values s replies;
          notes = note :: failures;
        }
      end
      else begin
        let plain = served ~tracer:Tracer.null in
        let tracer = Tracer.create () in
        let traced = served ~tracer in
        let rss = peak_rss_mb () in
        let plain_replies, plain_failures = validate plain in
        let replies, failures = validate traced in
        let ttr = fst (time_to_result traced replies) in
        List.iter
          (fun r ->
            Tracer.span_at tracer ~args:[ ("id", r.r_sent.job.id) ] "client.job"
              ~ts:r.r_sent.t_send ~dur:(r.r_latency_ms /. 1000.0))
          replies;
        Tracer.write tracer trace_out;
        {
          attempted = Hashtbl.length plain.sends + Hashtbl.length traced.sends;
          failed = List.length plain_failures + List.length failures;
          values =
            (("setup_s", plain.setup_s) :: ("peak_rss_mb", rss)
            :: stream_values plain plain_replies)
            @ span_values traced tracer replies
            @ [
                ("traced.setup_s", traced.setup_s);
                ("traced.time_to_result_s", ttr);
                ("traced.overhead_s", ttr -. fst (time_to_result plain plain_replies));
              ];
          raw = raw_values plain plain_replies;
          notes = note :: ("chrome trace: " ^ trace_out) :: (plain_failures @ failures);
        }
      end
    in
    Report.emit ~workload:Workload.serve_name ~seed ~trace outcome
  with Stalled ->
    Report.emit ~workload:Workload.serve_name ~seed ~trace
      {
        attempted = 1;
        failed = 1;
        values = [];
        raw = [];
        notes = [ "replies stopped arriving before the deadline" ];
      }
