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
module Specs = Specs

type engine =
  | Interpreter
  | Compiled
  | FlatKernel
  | Native
  | TieredEngine
  | Partitioned

let engine_of_string s =
  match String.lowercase_ascii s with
  | "interp" | "interpreter" | "asim" -> Some Interpreter
  | "compiled" | "compile" | "asim2" | "asimii" -> Some Compiled
  | "flat" | "flat-kernel" | "flatkernel" -> Some FlatKernel
  | "native" | "jit" -> Some Native
  | "tiered" | "tier" -> Some TieredEngine
  | "par" | "bsp" | "partitioned" -> Some Partitioned
  | _ -> None

let engine_to_string = function
  | Interpreter -> "interpreter"
  | Compiled -> "compiled"
  | FlatKernel -> "flat"
  | Native -> "native"
  | TieredEngine -> "tiered"
  | Partitioned -> "par"

let load_string source = Analysis.analyze (Parser.parse_string source)

let load_file path = Analysis.analyze (Parser.parse_file path)

let machine ?config ?(engine = Compiled) ?optimize ?opt ?schedule
    ?tracer ?prof ?domains ?par_costs analysis =
  (* The middle-end runs once, up front, on the analyzed spec — every engine
     below consumes the rewritten analysis unchanged.  Fault targets are kept
     verbatim (their widths can't be trusted and their values are observable
     through the perturbation). *)
  let analysis =
    match opt with
    | None | Some Asim_opt.Opt.O0 -> analysis
    | Some level ->
        let keep =
          match config with
          | Some { Machine.faults; _ } -> Fault.targets faults
          | None -> []
        in
        Opt.run ~level ~keep analysis
  in
  match engine with
  | Interpreter -> Interp.create ?config ?prof analysis
  | Compiled -> Compile.create ?config ?optimize ?prof analysis
  | FlatKernel -> Flat.create ?config ?schedule ?tracer ?prof analysis
  | Native -> (
      match prof with
      | None -> Jit.create ?config ?tracer analysis
      | Some _ ->
          Error.failf Error.Runtime
            "the native engine does not support profiling (the generated \
             plugin carries no counters); use flat, tiered, compiled or \
             interp")
  | TieredEngine -> Tiered.create ?config ?tracer ?prof analysis
  | Partitioned -> (
      match prof with
      | None -> Par.create ?config ?tracer ?domains ?costs:par_costs analysis
      | Some _ ->
          Error.failf Error.Runtime
            "the partitioned engine does not support profiling (per-eval \
             counters would race across domains); collect the profile on \
             flat and feed its cost model back with --par-profile")

let run_analysis ?config ?engine ?cycles analysis =
  let m = machine ?config ?engine analysis in
  let cycles =
    match cycles with Some n -> n | None -> Machine.spec_cycles m ~default:0
  in
  Machine.run m ~cycles;
  m

let run_string ?config ?engine ?cycles source =
  run_analysis ?config ?engine ?cycles (load_string source)

let run_file ?config ?engine ?cycles path =
  run_analysis ?config ?engine ?cycles (load_file path)
