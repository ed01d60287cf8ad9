(* The benchmark's workloads and their seeded input generator.

   Every input the program sees is text made here, from the seed, before any
   timing starts: the two single-run workloads get one spec file at full
   size and one at a tenth of it (for the scaling exponents), and
   serve-mixed gets a JSONL file of request lines. *)

type shape =
  | Mesh of { width : int; height : int }
  | Pipeline of { cores : int; depth : int }

let components = function
  | Mesh { width; height } -> height * (width + 1)
  | Pipeline { cores; depth } -> cores * (depth + 1)

let shape_to_string = function
  | Mesh { width; height } -> Printf.sprintf "Gen.mesh %dx%d" width height
  | Pipeline { cores; depth } ->
      Printf.sprintf "Gen.pipeline %d cores x depth %d" cores depth

let spec_text shape ~cycles ~seed =
  let spec =
    match shape with
    | Mesh { width; height } -> Asim_fuzz.Gen.mesh ~cycles ~width ~height ~seed ()
    | Pipeline { cores; depth } ->
        Asim_fuzz.Gen.pipeline ~cycles ~cores ~depth ~seed ()
  in
  Asim.Pretty.spec spec

(* A workload that takes one spec from text to final state: parse, analyze,
   -O2, flat build, then [cycles] cycles on the flat kernel. *)
type single = {
  name : string;
  shape : shape;
  small : shape;  (** a tenth of [shape], for the scaling exponents *)
  cycles : int;
  compiled_budget : int;
      (** cycles the compiled -O0 reference engine runs; it takes 13-16 ms
          a cycle on both shapes, so flat -O0 carries the check on to
          [cycles] (see [Single.check]) *)
  reps_per_second : float;
      (** repetitions per second of --seconds: one takes about 5 s on the
          mesh and 3.3 s on the pipeline on a 2-core host *)
}

let frontend =
  {
    name = "frontend-mesh100k";
    shape = Mesh { width = 99; height = 1000 };
    small = Mesh { width = 99; height = 100 };
    cycles = 2000;
    compiled_budget = 256;
    reps_per_second = 0.2;
  }

let sim =
  {
    name = "sim-pipeline10k";
    shape = Pipeline { cores = 1000; depth = 9 };
    small = Pipeline { cores = 100; depth = 9 };
    cycles = 50_000;
    compiled_budget = 256;
    reps_per_second = 0.3;
  }

let singles = [ frontend; sim ]

(* serve-mixed: one in-process server, a closed-loop client.  One job in
   eight is a fresh ~2k-component spec sent inline (a cache miss); the rest
   are built-in examples at their own cycle count (cache hits).  The client
   calibrates the host after every [serve_block] jobs. *)
let serve_name = "serve-mixed"
let serve_shards = 2
let serve_window = 4
let serve_min_jobs = 1000
let serve_block = 50

(* Jobs per second of --seconds: sized so the stream takes about that long
   on a 2-core host. *)
let serve_jobs_per_second = 150

let serve_jobs ~seconds = max serve_min_jobs (serve_jobs_per_second * seconds)

(* The [m]-th miss and its cycle count: the two shapes alternate, so each
   has half of them, and each runs for about 12 ms on the service's default
   (compiled) engine. *)
let miss_shape m =
  if m mod 2 = 0 then (Mesh { width = 19; height = 100 }, 50)
  else (Pipeline { cores = 200; depth = 9 }, 20)

let want = Asim_batch.Json.List [ String "outputs"; String "timing" ]

let request ~id source =
  Asim_batch.Json.to_string
    (Obj [ ("id", String id); source; ("want", want) ])

(* The request lines of the stream, in send order.  Ids are "h<k>" for
   examples and "m<k>" for fresh inline specs.  Each block of eight jobs
   holds exactly one miss at a seeded position, and the examples are dealt
   round-robin then shuffled, so every seed sends the same mix and only the
   order and the fresh specs change. *)
let serve_stream ~seed ~jobs =
  let st = Random.State.make [| 0x5e7e; seed |] in
  let names = Array.of_list (List.map fst Asim.Specs.all) in
  let blocks = (jobs + 7) / 8 in
  let miss_at = Array.init blocks (fun _ -> Random.State.int st 8) in
  let is_miss k = miss_at.(k / 8) = k mod 8 in
  let hits = List.length (List.filter (fun k -> not (is_miss k)) (List.init jobs Fun.id)) in
  let deck = Array.init hits (fun i -> names.(i mod Array.length names)) in
  for i = hits - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = deck.(i) in
    deck.(i) <- deck.(j);
    deck.(j) <- x
  done;
  let next = ref 0 in
  List.init jobs (fun k ->
      if is_miss k then
        let shape, cycles = miss_shape (k / 8) in
        let text = spec_text shape ~cycles ~seed:((seed * 1_000_003) + k) in
        request ~id:(Printf.sprintf "m%d" k) ("spec", String text)
      else begin
        let name = deck.(!next) in
        incr next;
        request ~id:(Printf.sprintf "h%d" k) ("example", String name)
      end)

let spec_file ~dir ~name ~seed ~small =
  Filename.concat dir
    (Printf.sprintf "%s-%d%s.asim" name seed (if small then ".small" else ""))

let jobs_file ~dir ~seed =
  Filename.concat dir (Printf.sprintf "%s-%d.jsonl" serve_name seed)

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let generate ~name ~seed ~seconds ~dir =
  match List.find_opt (fun w -> w.name = name) singles with
  | Some w ->
      List.iter
        (fun small ->
          write_file
            (spec_file ~dir ~name ~seed ~small)
            (spec_text
               (if small then w.small else w.shape)
               ~cycles:w.cycles ~seed))
        [ false; true ]
  | None when name = serve_name ->
      let lines = serve_stream ~seed ~jobs:(serve_jobs ~seconds) in
      write_file (jobs_file ~dir ~seed) (String.concat "\n" lines ^ "\n")
  | None -> failwith ("unknown workload " ^ name)
