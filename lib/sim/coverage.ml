open Asim_core

type observation_point =
  | Traced_values
  | All_values
  | Io_events

type result = {
  fault : Fault.fault;
  detected : bool;
  first_divergence : int option;
}

type report = {
  results : result list;
  total : int;
  detected_count : int;
}

let coverage r =
  if r.total = 0 then 1.0 else float_of_int r.detected_count /. float_of_int r.total

let stuck_at_faults ?(bits_per_component = 8) (analysis : Asim_analysis.Analysis.t) =
  let widths = Asim_analysis.Analysis.widths analysis in
  analysis.Asim_analysis.Analysis.spec.Spec.components
  |> List.mapi (fun id (c : Component.t) ->
         let width = min bits_per_component (max 1 (min Bits.word_bits widths.(id))) in
         List.concat
           (List.init width (fun bit ->
                [
                  {
                    Fault.component = c.name;
                    kind = Fault.Stuck_bit_low bit;
                    first_cycle = 0;
                    last_cycle = None;
                  };
                  {
                    Fault.component = c.name;
                    kind = Fault.Stuck_bit_high bit;
                    first_cycle = 0;
                    last_cycle = None;
                  };
                ])))
  |> List.concat

let fault_to_string (f : Fault.fault) =
  let kind =
    match f.Fault.kind with
    | Fault.Stuck_at v -> Printf.sprintf "stuck-at %d" v
    | Fault.Flip_bit b -> Printf.sprintf "bit %d flipped" b
    | Fault.Stuck_bit_high b -> Printf.sprintf "bit %d stuck high" b
    | Fault.Stuck_bit_low b -> Printf.sprintf "bit %d stuck low" b
  in
  Printf.sprintf "%s: %s" f.Fault.component kind

(* One run: per-cycle observed value rows plus the I/O event stream. *)
let observe ~observe_point ~cycles ~engine ~faults (analysis : Asim_analysis.Analysis.t) =
  let io, events = Io.recording () in
  let config = { Machine.io; trace = Trace.null_sink; faults } in
  let machine : Machine.t = engine config analysis in
  let names =
    match observe_point with
    | Io_events -> []
    | Traced_values -> Spec.traced_names analysis.Asim_analysis.Analysis.spec
    | All_values ->
        List.map
          (fun (c : Component.t) -> c.name)
          analysis.Asim_analysis.Analysis.spec.Spec.components
  in
  let rows = Array.make cycles [] in
  (try
     for cycle = 0 to cycles - 1 do
       machine.Machine.step ();
       rows.(cycle) <- List.map machine.Machine.read names
     done
   with Error.Error { phase = Error.Runtime; _ } ->
     (* a fault may drive the machine into a runtime error (bad address,
        selector overrun): treat what was observed so far as the run *)
     ());
  (rows, events ())

let first_divergence a b =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i >= n then if Array.length a <> Array.length b then Some n else None
    else if a.(i) <> b.(i) then Some i
    else go (i + 1)
  in
  go 0

let run ?observe:observe_opt ?cycles ~engine (analysis : Asim_analysis.Analysis.t)
    ~faults =
  let spec = analysis.Asim_analysis.Analysis.spec in
  let observe_point =
    match observe_opt with
    | Some o -> o
    | None -> if Spec.traced_names spec = [] then All_values else Traced_values
  in
  let cycles =
    match cycles with
    | Some n -> n
    | None -> ( match spec.Spec.cycles with Some n -> n | None -> 100)
  in
  let healthy_rows, healthy_events =
    observe ~observe_point ~cycles ~engine ~faults:[] analysis
  in
  let results =
    List.map
      (fun fault ->
        let rows, events =
          observe ~observe_point ~cycles ~engine ~faults:[ fault ] analysis
        in
        let value_div = first_divergence healthy_rows rows in
        let io_div = events <> healthy_events in
        {
          fault;
          detected = value_div <> None || io_div;
          first_divergence = value_div;
        })
      faults
  in
  {
    results;
    total = List.length results;
    detected_count = List.length (List.filter (fun r -> r.detected) results);
  }

let to_string r =
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "fault coverage: %d / %d detected (%.1f%%)\n" r.detected_count
       r.total
       (100. *. coverage r));
  let undetected = List.filter (fun x -> not x.detected) r.results in
  if undetected <> [] then begin
    Buffer.add_string buf "undetected faults:\n";
    List.iter
      (fun x -> Buffer.add_string buf ("  " ^ fault_to_string x.fault ^ "\n"))
      undetected
  end;
  Buffer.contents buf
