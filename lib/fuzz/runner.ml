open Asim_core

type failure =
  | Divergence of Oracle.divergence
  | Roundtrip_mismatch

type report = {
  index : int;
  failure : failure;
  original : Spec.t;
  shrunk : Spec.t;
  bundle : string option;
}

type outcome = {
  tested : int;
  reports : report list;
  elapsed : float;
}

let failure_to_string = function
  | Divergence d -> Oracle.divergence_to_string d
  | Roundtrip_mismatch -> "pretty-print/reparse round trip lost the spec"

(* --- reproducer bundles ---------------------------------------------------- *)

let rec ensure_dir path =
  if not (Sys.file_exists path) then begin
    let parent = Filename.dirname path in
    if parent <> path then ensure_dir parent;
    (try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let roundtrips spec =
  match Asim_syntax.Parser.parse_string (Pretty.spec spec) with
  | reparsed -> reparsed = spec
  | exception Error.Error _ -> false

let write_bundle ~dir ~seed ~index ~failure ~original ~shrunk =
  ensure_dir dir;
  write_file (Filename.concat dir "repro.asim") (Pretty.spec shrunk);
  write_file (Filename.concat dir "original.asim") (Pretty.spec original);
  let meta =
    String.concat "\n"
      [
        "asim fuzz reproducer";
        Printf.sprintf "seed: %d" seed;
        Printf.sprintf "index: %d" index;
        Printf.sprintf "failure: %s" (failure_to_string failure);
        (match failure with
        | Divergence { engine_a; engine_b; first_cycle; _ } ->
            Printf.sprintf "engine pair: %s vs %s%s"
              (Oracle.engine_to_string engine_a)
              (Oracle.engine_to_string engine_b)
              (match first_cycle with
              | Some c -> Printf.sprintf "\nfirst divergent cycle: %d" c
              | None -> "")
        | Roundtrip_mismatch -> "engine pair: pretty vs parser");
        Printf.sprintf "components in shrunk repro: %d"
          (List.length shrunk.Spec.components);
        Printf.sprintf "replay the generated spec: asim fuzz --seed %d --start %d --count 1"
          seed index;
        "rerun the shrunk repro directly: asim run repro.asim (per engine via -e)";
        "";
      ]
  in
  write_file (Filename.concat dir "META.txt") meta

(* --- the campaign ----------------------------------------------------------- *)

(* What a worker hands back for one campaign index.  Checking and shrinking
   run on the worker; everything with observable order (on_spec, log lines,
   bundle writes, report accumulation) happens at emission, which
   [Asim_batch.Pool] serializes in index order — so campaign output is
   deterministic for any --jobs width, and byte-identical to the historical
   sequential driver. *)
type work_result = {
  w_spec : Asim_core.Spec.t option;  (** [None]: skipped (out of time budget) *)
  w_failure : (failure * Asim_core.Spec.t) option;  (** failure and shrunk witness *)
}

let run ?artifacts_dir ?time_budget ?(tracer = Asim_obs.Tracer.null) ?feed ?opt
    ?(engines = Oracle.all) ?(start = 0) ?(shrink = true) ?(on_spec = fun _ _ -> ())
    ?(log = fun _ -> ()) ?(jobs = 1) ~seed ~count ~size () =
  (* Engines that cannot run here (native without a toolchain) are dropped
     with a warning rather than aborting the campaign. *)
  let engines =
    List.filter
      (fun e ->
        Oracle.available e
        ||
        (log
           (Printf.sprintf
              "warning: engine %s unavailable here (no toolchain) — dropped \
               from the comparison set"
              (Oracle.engine_to_string e));
         false))
      engines
  in
  let t0 = Asim_obs.Clock.now () in
  let deadline = Option.map (fun b -> t0 +. b) time_budget in
  let tested = ref 0 in
  let reports = ref [] in
  let out_of_time () =
    match deadline with None -> false | Some d -> Asim_obs.Clock.now () > d
  in
  let check_spec index spec =
    if not (roundtrips spec) then Some Roundtrip_mismatch
    else
      match Oracle.check ?feed ?opt ~engines spec with
      | Some d -> Some (Divergence d)
      | None -> None
      | exception Error.Error e ->
          (* Engine construction itself failed: report it as a divergence of
             the whole engine set rather than crashing the campaign. *)
          Some
            (Divergence
               {
                 Oracle.engine_a = List.hd engines;
                 engine_b = List.hd engines;
                 first_cycle = None;
                 reason =
                   Printf.sprintf "spec %d broke the oracle: %s" index
                     (Error.to_string e);
               })
  in
  let work index =
    if out_of_time () then { w_spec = None; w_failure = None }
    else begin
      let attr = [ ("index", string_of_int index) ] in
      let spec =
        Asim_obs.Tracer.span tracer ~args:attr "fuzz.generate" (fun () ->
            Gen.spec_at size ~seed ~index)
      in
      match
        Asim_obs.Tracer.span tracer ~args:attr "fuzz.check" (fun () ->
            check_spec index spec)
      with
      | None -> { w_spec = Some spec; w_failure = None }
      | Some failure ->
          let keep =
            match failure with
            | Divergence _ -> fun s -> Oracle.check ?feed ?opt ~engines s <> None
            | Roundtrip_mismatch -> fun s -> not (roundtrips s)
          in
          let shrunk =
            if shrink then
              Asim_obs.Tracer.span tracer ~args:attr "fuzz.shrink" (fun () ->
                  Shrink.spec ~keep spec)
            else spec
          in
          (* Re-diagnose the shrunk spec so the report names the engine pair
             and cycle of the *minimized* witness. *)
          let failure =
            match failure with
            | Roundtrip_mismatch -> Roundtrip_mismatch
            | Divergence d -> (
                match Oracle.check ?feed ?opt ~engines shrunk with
                | Some d' -> Divergence d'
                | None -> Divergence d)
          in
          { w_spec = Some spec; w_failure = Some (failure, shrunk) }
    end
  in
  let finalize pool_index r =
    let index = start + pool_index in
    match r.w_spec with
    | None -> ()
    | Some spec ->
        incr tested;
        on_spec index spec;
        (match r.w_failure with
        | None -> ()
        | Some (failure, shrunk) ->
            log (Printf.sprintf "spec %d: %s" index (failure_to_string failure));
            (* The report is recorded before the bundle is written, so a
               bundle that cannot be written still fails the campaign. *)
            let report = { index; failure; original = spec; shrunk; bundle = None } in
            reports := report :: !reports;
            match artifacts_dir with
            | None -> ()
            | Some root -> (
                let dir =
                  Filename.concat root (Printf.sprintf "repro-seed%d-%d" seed index)
                in
                let unwritten why =
                  log
                    (Printf.sprintf "spec %d: could not write reproducer bundle to %s: %s"
                       index dir why)
                in
                match write_bundle ~dir ~seed ~index ~failure ~original:spec ~shrunk with
                | () ->
                    log
                      (Printf.sprintf "spec %d: reproducer bundle written to %s" index dir);
                    reports := { report with bundle = Some dir } :: List.tl !reports
                | exception Sys_error why -> unwritten why
                | exception Unix.Unix_error (err, _, _) -> unwritten (Unix.error_message err)))
  in
  let pool =
    Asim_batch.Pool.create ~jobs
      ~on_crash:(fun pool_index exn ->
        (* A bug outside the oracle's own error handling: isolate it to this
           index as a structured failure instead of killing the campaign. *)
        let reason =
          Printf.sprintf "spec %d crashed the campaign: %s" (start + pool_index)
            (Printexc.to_string exn)
        in
        let empty = Asim_core.Spec.make [] in
        {
          w_spec = Some empty;
          w_failure =
            Some
              ( Divergence
                  {
                    Oracle.engine_a = List.hd engines;
                    engine_b = List.hd engines;
                    first_cycle = None;
                    reason;
                  },
                empty );
        })
      ~emit:finalize
  in
  for pool_index = 0 to count - 1 do
    ignore pool_index;
    Asim_batch.Pool.submit pool (fun pool_index -> work (start + pool_index))
  done;
  let _processed = Asim_batch.Pool.finish pool in
  { tested = !tested; reports = List.rev !reports; elapsed = Asim_obs.Clock.now () -. t0 }

let report_to_string r =
  Printf.sprintf "spec %d: %s (shrunk to %d components%s)" r.index
    (failure_to_string r.failure)
    (List.length r.shrunk.Spec.components)
    (match r.bundle with Some dir -> "; bundle: " ^ dir | None -> "")

let summary ~seed ~engines outcome =
  Printf.sprintf "fuzz: %d specs tested (seed %d, engines %s) in %.1fs — %s" outcome.tested
    seed
    (String.concat "," (List.map Oracle.engine_to_string engines))
    outcome.elapsed
    (match outcome.reports with
    | [] -> "no divergences"
    | rs -> Printf.sprintf "%d failure(s)" (List.length rs))
