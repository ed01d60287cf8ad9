open Asim_core
module Analysis = Asim_analysis.Analysis
module Width = Asim_analysis.Width

type level = O0 | O1 | O2

let level_of_string s =
  match String.trim s with
  | "0" | "O0" | "o0" -> Some O0
  | "1" | "O1" | "o1" -> Some O1
  | "2" | "O2" | "o2" -> Some O2
  | _ -> None

let level_to_string = function O0 -> "0" | O1 -> "1" | O2 -> "2"

let env_var = "ASIM_OPT"

let skew_env_var = "ASIM_OPT_SKEW"

let env_level () =
  match Sys.getenv_opt env_var with
  | None | Some "" -> O2
  | Some s -> (
      match level_of_string s with
      | Some l -> l
      | None ->
          Error.failf Error.Analysis "%s must be 0, 1 or 2 (got %S)" env_var s)

type pass = Constprop | Narrow | Dce

let all_passes = [ Constprop; Narrow; Dce ]

let passes_of_level = function
  | O0 -> []
  | O1 -> [ Constprop; Narrow ]
  | O2 -> all_passes

let pass_to_string = function
  | Constprop -> "constprop"
  | Narrow -> "narrow"
  | Dce -> "dce"

type stats = {
  folded : int;
  rewired : int;
  stubbed : int;
  fused : int;
  narrowed : int;
}

type result = { analysis : Analysis.t; dead : string list; stats : stats }

(* ------------------------------------------------------------------ *)
(* Constant propagation evaluates each combinational component over a
   three-point abstract value.  The transfer functions mirror
   [Expr.eval]'s placement arithmetic exactly — sums are unmasked, shifts
   are plain [lsl], extracts are two's-complement — so a [Known] value is
   the precise value every engine would compute. *)

type value =
  | Known of int
  | Field of int
      (* an extracted bit field of this width, shifted down to bit 0: an
         extract starting at or above the width reads constant zero *)
  | Unknown

let ext x lo hi =
  match x with
  | Known v -> Known ((v land Bits.field_mask ~lo ~hi) lsr lo)
  | Field w -> if lo >= w then Known 0 else Field (min hi (w - 1) - lo + 1)
  | Unknown -> Field (hi - lo + 1)

let shl x k =
  if k <= 0 then x
  else match x with Known v -> Known (v lsl k) | Field _ | Unknown -> Unknown

(* A sum of known parts is known; a single unknown part plus zero is that
   part. *)
let sum values =
  let c, rest =
    List.fold_left
      (fun (c, rest) -> function
        | Known v -> (c + v, rest)
        | x -> (c, x :: rest))
      (0, []) values
  in
  match rest with [] -> Known c | [ x ] when c = 0 -> x | _ -> Unknown

(* ALU folding.  [apply_alu] is total, so folding never hides an error; the
   identities below hold for raw (unmasked, possibly negative) operands.
   There is deliberately no shift-by-zero identity: function 6 masks its
   left operand even for a zero count. *)
let alu f l r =
  match f with
  | Known code -> (
      let fn = Component.alu_function_of_code code in
      match (fn, l, r) with
      | (Component.Fn_zero | Component.Fn_unused), _, _ -> Known 0
      | Component.Fn_right, _, _ -> r
      | Component.Fn_left, _, _ -> l
      | Component.Fn_not, Known lv, _ -> Known (Bits.mask - lv)
      | _, Known lv, Known rv -> Known (Component.apply_alu fn ~left:lv ~right:rv)
      | Component.Fn_add, Known 0, _ -> r
      | Component.Fn_add, _, Known 0 -> l
      | Component.Fn_sub, _, Known 0 -> l
      | Component.Fn_or, Known 0, _ -> r
      | Component.Fn_or, _, Known 0 -> l
      | Component.Fn_xor, Known 0, _ -> r
      | Component.Fn_xor, _, Known 0 -> l
      | Component.Fn_and, Known 0, _ | Component.Fn_and, _, Known 0 -> Known 0
      | Component.Fn_mul, Known 0, _ | Component.Fn_mul, _, Known 0 -> Known 0
      | Component.Fn_mul, Known 1, _ -> r
      | Component.Fn_mul, _, Known 1 -> l
      | _ -> Unknown)
  | _ -> Unknown

(* A constant in-range select folds to its case — such a selector can never
   raise.  Anything else (including a constant *out-of-range* select) stays
   unknown so the runtime error is preserved. *)
let sel s cases =
  match s with
  | Known v when v >= 0 && v < Array.length cases -> cases.(v)
  | _ -> Unknown

let bitstring_value s =
  String.fold_left (fun acc c -> (acc * 2) + if c = '1' then 1 else 0) 0 s

let field_bounds = function
  | Expr.Whole -> None
  | Expr.Bit f ->
      let f = Number.value f in
      Some (f, f)
  | Expr.Range (f, t) -> Some (Number.value f, Number.value t)

(* Expression -> value, tracking the running bit position exactly as
   [Expr.atom_contribution] does (filling atoms jump it to the word). *)
let value_of_expr ~use atoms =
  let contribution numbits = function
    | Expr.Const { number; width = None } ->
        (Known (Number.value number lsl numbits), Bits.word_bits)
    | Expr.Const { number; width = Some w } ->
        let w = Number.value w in
        (Known ((Number.value number land Bits.ones w) lsl numbits), numbits + w)
    | Expr.Bitstring s ->
        (Known (bitstring_value s lsl numbits), numbits + String.length s)
    | Expr.Ref { name; field } -> (
        match field_bounds field with
        | None -> (shl (use name) numbits, Bits.word_bits)
        | Some (lo, hi) ->
            (shl (ext (use name) lo hi) numbits, numbits + (hi - lo + 1)))
  in
  let rec go acc numbits = function
    | [] -> sum acc
    | atom :: rest ->
        let v, numbits = contribution numbits atom in
        go (v :: acc) numbits rest
  in
  go [] 0 (List.rev atoms)

(* ------------------------------------------------------------------ *)
(* Width facts.  [Width.infer] is sound — value in [0, 2^w) whenever the
   claimed width is below the word — except for components whose value a
   fault plan may perturb.  Taint every component transitively reachable
   (in the reader direction) from a kept name and refuse width claims on
   tainted components, and on memories initialized with negative cells
   (which escape the accounting's non-negative value model). *)

let input_names (c : Component.t) =
  List.concat_map Expr.names (Component.inputs c)

(* One worklist pass over reverse (producer -> reader) edges, the same
   queue discipline as DCE's liveness below. *)
let taint_closure (components : Component.t list) keep =
  let tainted = Hashtbl.create 16 in
  if keep <> [] then begin
    let readers = Hashtbl.create 64 in
    List.iter
      (fun (c : Component.t) ->
        List.iter (fun n -> Hashtbl.add readers n c.Component.name) (input_names c))
      components;
    let queue = Queue.create () in
    let mark n =
      if not (Hashtbl.mem tainted n) then begin
        Hashtbl.replace tainted n ();
        Queue.add n queue
      end
    in
    List.iter mark keep;
    while not (Queue.is_empty queue) do
      List.iter mark (Hashtbl.find_all readers (Queue.pop queue))
    done
  end;
  tainted

let make_bounded_width (spec : Spec.t) tainted =
  let wenv = Width.infer spec in
  let tbl = Hashtbl.create (max 16 (List.length wenv)) in
  List.iter (fun (name, w) -> Hashtbl.replace tbl name w) wenv;
  List.iter
    (fun (c : Component.t) ->
      match c.Component.kind with
      | Component.Memory { init = Some cells; _ }
        when Array.exists (fun v -> v < 0) cells ->
          Hashtbl.replace tbl c.Component.name Bits.word_bits
      | _ -> ())
    spec.Spec.components;
  fun name ->
    if Hashtbl.mem tainted name then None
    else
      match Hashtbl.find_opt tbl name with
      | Some w when w < Bits.word_bits -> Some w
      | _ -> None

(* A sound upper bound on an expression's value under the current width
   facts; [None] when no bound is provable (the value may even be
   negative).  Mirrors the evaluator's placement arithmetic. *)
let expr_ubound ~bw atoms =
  let clamp = function
    | Some v when v >= 0 && v <= Bits.mask -> Some v
    | _ -> None
  in
  let contribution numbits = function
    | Expr.Const { number; width = None } ->
        let v = Number.value number in
        ((if v >= 0 then Some (v lsl numbits) else None), Bits.word_bits)
    | Expr.Const { number; width = Some w } ->
        let w = Number.value w in
        (Some ((Number.value number land Bits.ones w) lsl numbits), numbits + w)
    | Expr.Bitstring s ->
        (Some (bitstring_value s lsl numbits), numbits + String.length s)
    | Expr.Ref { name; field } -> (
        match field_bounds field with
        | None ->
            ( (match bw name with
              | Some w -> Some (Bits.ones w lsl numbits)
              | None -> None),
              Bits.word_bits )
        | Some (lo, hi) ->
            let fw = hi - lo + 1 in
            let bound =
              match bw name with
              | Some w when w <= lo -> 0
              | Some w when w - lo < fw -> Bits.ones (w - lo)
              | _ -> Bits.ones fw
            in
            (Some (bound lsl numbits), numbits + fw))
  in
  let rec go acc numbits = function
    | [] -> clamp acc
    | atom :: rest -> (
        let v, numbits = contribution numbits atom in
        match (acc, clamp v) with
        | Some a, Some v -> go (Some (a + v)) numbits rest
        | _ -> None)
  in
  go (Some 0) 0 (List.rev atoms)

(* Can evaluating this component itself raise?  ALUs are total (reads never
   fail either); a selector raises iff its select can leave the case
   range.  Memory address errors belong to the memory phase, which the
   optimizer never reorders. *)
let never_errors ~bw (c : Component.t) =
  match c.Component.kind with
  | Component.Alu _ -> true
  | Component.Selector { select; cases } -> (
      match expr_ubound ~bw select with
      | Some bound -> bound < Array.length cases
      | None -> false)
  | Component.Memory _ -> false

(* ------------------------------------------------------------------ *)
(* Materialization: constant wires are plain ALUs (function 1 passes the
   right operand through, function 0 is constant zero). *)

let const_atom v =
  if v >= 0 && v <= Bits.mask then Expr.num_w v ~width:(Bits.width_needed v)
  else Expr.num v

let wire_kind right =
  Component.Alu { fn = [ Expr.num 1 ]; left = [ Expr.num 0 ]; right }

let stub_kind =
  Component.Alu
    { fn = [ Expr.num 0 ]; left = [ Expr.num 0 ]; right = [ Expr.num 0 ] }

(* ------------------------------------------------------------------ *)

let run_result ?(level = O2) ?passes ?(keep = []) (analysis : Analysis.t) =
  let passes =
    match passes with Some ps -> ps | None -> passes_of_level level
  in
  let has p = List.mem p passes in
  let skew =
    has Dce
    &&
    match Sys.getenv_opt skew_env_var with
    | None | Some "" | Some "0" -> false
    | Some _ -> true
  in
  if passes = [] then
    {
      analysis;
      dead = [];
      stats = { folded = 0; rewired = 0; stubbed = 0; fused = 0; narrowed = 0 };
    }
  else begin
    let spec = analysis.Analysis.spec in
    let folded = ref 0
    and stubbed = ref 0
    and fused = ref 0
    and narrowed = ref 0 in
    (* Opaque components are kept verbatim: traced ones (their widths feed
       VCD headers, their values the per-cycle trace), fault-plan targets,
       and every memory. *)
    let opaque = Hashtbl.create 64 in
    List.iter (fun n -> Hashtbl.replace opaque n ()) (Spec.traced_names spec);
    List.iter (fun n -> Hashtbl.replace opaque n ()) keep;
    List.iter
      (fun (c : Component.t) -> Hashtbl.replace opaque c.Component.name ())
      analysis.Analysis.memories;
    let is_opaque n = Hashtbl.mem opaque n in
    let tainted = taint_closure spec.Spec.components keep in
    (* --- constant propagation in evaluation order --------------------- *)
    let consts : (string, int) Hashtbl.t = Hashtbl.create 64 in
    if has Constprop then begin
      let values : (string, value) Hashtbl.t = Hashtbl.create 64 in
      let use name =
        if is_opaque name then Unknown
        else Option.value (Hashtbl.find_opt values name) ~default:Unknown
      in
      List.iter
        (fun (c : Component.t) ->
          if not (is_opaque c.Component.name) then begin
            let v =
              match c.Component.kind with
              | Component.Alu { fn; left; right } ->
                  alu (value_of_expr ~use fn) (value_of_expr ~use left)
                    (value_of_expr ~use right)
              | Component.Selector { select; cases } ->
                  sel (value_of_expr ~use select)
                    (Array.map (value_of_expr ~use) cases)
              | Component.Memory _ -> assert false
            in
            Hashtbl.replace values c.Component.name v;
            match v with
            | Known k when k >= 0 ->
                (* A known value implies the component can never raise
                   (selectors only fold through in-range selects), so a
                   constant wire is observably identical.  Negative
                   constants are left alone: they cannot be written back as
                   source literals. *)
                Hashtbl.replace consts c.Component.name k;
                incr folded
            | _ -> ()
          end)
        analysis.Analysis.order
    end;
    (* Reads of a folded component become literal constants. *)
    let rewrite_atom atom =
      match atom with
      | Expr.Ref { name; field } -> (
          match Hashtbl.find_opt consts name with
          | None -> atom
          | Some v -> (
              match field_bounds field with
              | None -> const_atom v
              | Some (lo, hi) ->
                  Expr.num_w
                    ((v land Bits.field_mask ~lo ~hi) lsr lo)
                    ~width:(hi - lo + 1)))
      | _ -> atom
    in
    let rewrite_expr e = List.map rewrite_atom e in
    (* --- constprop extras on kept components -------------------------- *)
    let drop_unused_operand fn_value (alu : Component.alu) =
      if not (has Constprop) then alu
      else
        let zero = [ Expr.num_w 0 ~width:1 ] in
        let has_refs e = Expr.names e <> [] in
        match Component.alu_function_of_code fn_value with
        | Component.Fn_left | Component.Fn_not ->
            if has_refs alu.Component.right then begin
              incr fused;
              { alu with Component.right = zero }
            end
            else alu
        | Component.Fn_right ->
            if has_refs alu.Component.left then begin
              incr fused;
              { alu with Component.left = zero }
            end
            else alu
        | Component.Fn_zero | Component.Fn_unused ->
            let alu =
              if has_refs alu.Component.left then begin
                incr fused;
                { alu with Component.left = zero }
              end
              else alu
            in
            if has_refs alu.Component.right then begin
              incr fused;
              { alu with Component.right = zero }
            end
            else alu
        | _ -> alu
    in
    let rewrite_component (c : Component.t) =
      if is_opaque c.Component.name then
        match c.Component.kind with
        | Component.Memory { addr; data; op; cells; init } ->
            (* Memory expressions are rewritten (value-exactly) even though
               the memory itself is untouchable state. *)
            {
              c with
              Component.kind =
                Component.Memory
                  {
                    addr = rewrite_expr addr;
                    data = rewrite_expr data;
                    op = rewrite_expr op;
                    cells;
                    init;
                  };
            }
        | _ -> c
      else
        match Hashtbl.find_opt consts c.Component.name with
        | Some v -> { c with Component.kind = wire_kind [ const_atom v ] }
        | None -> (
            match c.Component.kind with
            | Component.Alu { fn; left; right } -> (
                let a =
                  {
                    Component.fn = rewrite_expr fn;
                    left = rewrite_expr left;
                    right = rewrite_expr right;
                  }
                in
                match Expr.const_value a.Component.fn with
                | Some code ->
                    { c with Component.kind = Component.Alu (drop_unused_operand code a) }
                | None -> { c with Component.kind = Component.Alu a })
            | Component.Selector { select; cases } -> (
                let select = rewrite_expr select in
                let cases = Array.map rewrite_expr cases in
                match Expr.const_value select with
                | Some s when has Constprop && s >= 0 && s < Array.length cases ->
                    (* Constant in-range select: the selector can never
                       raise, so it degrades to a wire of the chosen
                       case. *)
                    incr fused;
                    { c with Component.kind = wire_kind cases.(s) }
                | _ -> { c with Component.kind = Component.Selector { select; cases } })
            | Component.Memory _ -> assert false)
    in
    let components = List.map rewrite_component spec.Spec.components in
    (* --- narrow: width-driven mask elision, trims, case truncation ---- *)
    let current_spec components = { spec with Spec.components = components } in
    let components =
      if not (has Narrow) then components
      else begin
        let sweep components =
          let changed = ref false in
          let bw = make_bounded_width (current_spec components) tainted in
          let narrow_expr e =
            (* Position-independent rewrite: a field provably beyond the
               producer's width is constant zero of the same width.  The
               leftmost atom additionally allows layout changes: dropping a
               zero field outright, trimming the high bound, or — when the
               field covers the whole producer — eliding the mask into a
               plain (filling) reference, which is the cheap case for every
               backend. *)
            let rewrite_at ~leftmost ~rest atom =
              match atom with
              | Expr.Ref { name; field } -> (
                  match (field_bounds field, bw name) with
                  | Some (lo, hi), Some w ->
                      if w <= lo then
                        if leftmost && rest then begin
                          changed := true;
                          incr narrowed;
                          None (* drop: contributes nothing above *)
                        end
                        else begin
                          changed := true;
                          incr narrowed;
                          Some (Expr.num_w 0 ~width:(hi - lo + 1))
                        end
                      else if leftmost && lo = 0 && w <= hi + 1 && hi < Bits.word_bits - 1
                      then begin
                        (* mask elision: value < 2^w <= 2^(hi+1) *)
                        changed := true;
                        incr narrowed;
                        Some (Expr.ref_ name)
                      end
                      else if leftmost && hi > w - 1 then begin
                        changed := true;
                        incr narrowed;
                        Some (Expr.ref_range name lo (w - 1))
                      end
                      else Some atom
                  | _ -> Some atom)
              | _ -> Some atom
            in
            match e with
            | [] -> e
            | leftmost :: rest ->
                let rest' =
                  List.filter_map (rewrite_at ~leftmost:false ~rest:false) rest
                in
                let head =
                  rewrite_at ~leftmost:true ~rest:(rest' <> []) leftmost
                in
                match head with Some a -> a :: rest' | None -> rest'
          in
          let narrow_component (c : Component.t) =
            match c.Component.kind with
            | Component.Memory { addr; data; op; cells; init } ->
                {
                  c with
                  Component.kind =
                    Component.Memory
                      {
                        addr = narrow_expr addr;
                        data = narrow_expr data;
                        op = narrow_expr op;
                        cells;
                        init;
                      };
                }
            | _ when is_opaque c.Component.name -> c
            | Component.Alu { fn; left; right } ->
                {
                  c with
                  Component.kind =
                    Component.Alu
                      {
                        fn = narrow_expr fn;
                        left = narrow_expr left;
                        right = narrow_expr right;
                      };
                }
            | Component.Selector { select; cases } ->
                let select = narrow_expr select in
                let cases = Array.map narrow_expr cases in
                let cases =
                  match expr_ubound ~bw select with
                  | Some bound when bound + 1 < Array.length cases ->
                      (* Unreachable cases: the select provably stays below
                         the truncated length, so the (absence of an)
                         overrun error is preserved. *)
                      changed := true;
                      incr narrowed;
                      Array.sub cases 0 (bound + 1)
                  | _ -> cases
                in
                { c with Component.kind = Component.Selector { select; cases } }
          in
          (List.map narrow_component components, !changed)
        in
        (* Widths only shrink under these rewrites, so the loop reaches a
           fixpoint; the cap is a safety net. *)
        let rec fix components rounds =
          if rounds = 0 then components
          else
            let components', changed = sweep components in
            if changed then fix components' (rounds - 1) else components'
        in
        fix components 32
      end
    in
    (* --- dce: stub components no observable path can reach ------------ *)
    let components, dead =
      if not (has Dce) then (components, [])
      else begin
        let bw_final = make_bounded_width (current_spec components) tainted in
        let by_name = Hashtbl.create 64 in
        List.iter
          (fun (c : Component.t) -> Hashtbl.replace by_name c.Component.name c)
          components;
        let live = Hashtbl.create 64 in
        let queue = Queue.create () in
        let mark n =
          if (not (Hashtbl.mem live n)) && Hashtbl.mem by_name n then begin
            Hashtbl.replace live n ();
            Queue.add n queue
          end
        in
        (* Roots: state and I/O (memories), everything the trace prints,
           fault targets, and any component whose own evaluation might
           raise (its error — and therefore its input values — is
           observable even if its output is not). *)
        List.iter
          (fun (c : Component.t) ->
            let n = c.Component.name in
            if is_opaque n || not (never_errors ~bw:bw_final c) then mark n)
          components;
        while not (Queue.is_empty queue) do
          let n = Queue.pop queue in
          match Hashtbl.find_opt by_name n with
          | Some c -> List.iter mark (input_names c)
          | None -> ()
        done;
        let dead = ref [] in
        let components =
          List.map
            (fun (c : Component.t) ->
              let n = c.Component.name in
              if
                Hashtbl.mem live n || is_opaque n
                || Component.is_memory c
              then c
              else begin
                dead := n :: !dead;
                incr stubbed;
                { c with Component.kind = stub_kind }
              end)
            components
        in
        (components, List.rev !dead)
      end
    in
    (* --- rebuild the analysis (order, memories) ----------------------- *)
    let by_name = Hashtbl.create 64 in
    List.iter
      (fun (c : Component.t) -> Hashtbl.replace by_name c.Component.name c)
      components;
    let order =
      List.map
        (fun (c : Component.t) -> Hashtbl.find by_name c.Component.name)
        analysis.Analysis.order
    in
    (* --- planted miscompile: stale reads across the order boundary ---- *)
    let order = if skew && List.length order >= 2 then List.rev order else order in
    let memories =
      List.filter (fun (c : Component.t) -> Component.is_memory c) components
    in
    let analysis' =
      {
        Analysis.spec = { spec with Spec.components = components };
        order;
        memories;
        warnings = analysis.Analysis.warnings;
      }
    in
    {
      analysis = analysis';
      dead;
      stats =
        {
          folded = !folded;
          rewired = 0;
          stubbed = !stubbed;
          fused = !fused;
          narrowed = !narrowed;
        };
    }
  end

let run ?level ?passes ?keep analysis =
  (run_result ?level ?passes ?keep analysis).analysis
