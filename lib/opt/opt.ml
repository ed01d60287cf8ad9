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

(* ------------------------------------------------------------------ *)
(* Dense ids.  The passes below work over the analysis's resolved program:
   arrays indexed by id (a component's position in the spec), and each
   component's references as the ids of the [Ref] atoms of its
   expressions, left to right across [Component.inputs]
   ([Analysis.refs]). *)

(* Walkers read one component's reference ids through a cursor, one id per
   [Ref] atom, left to right.  Rewriters push the ids of the references they
   keep, so a rewritten component's references come out alongside it. *)
type cursor = { mutable ids : int array; mutable pos : int }

let next cur =
  let id = cur.ids.(cur.pos) in
  cur.pos <- cur.pos + 1;
  id

type kept = { mutable buf : int array; mutable len : int }

let push kept id =
  if kept.len = Array.length kept.buf then begin
    let buf = Array.make ((2 * kept.len) + 8) 0 in
    Array.blit kept.buf 0 buf 0 kept.len;
    kept.buf <- buf
  end;
  kept.buf.(kept.len) <- id;
  kept.len <- kept.len + 1

(* [List.map] applying [f] left to right, returning the list itself when
   [f] changed no element. *)
let rec map_share f = function
  | [] -> []
  | x :: tl as l ->
      let x' = f x in
      let tl' = map_share f tl in
      if x' == x && tl' == tl then l else x' :: tl'

(* A memory with [f] applied to its expressions, in [Component.inputs]
   order; [None] when [f] changed none of them. *)
let map_memory f (m : Component.memory) =
  let addr = f m.addr in
  let data = f m.data in
  let op = f m.op in
  if addr == m.addr && data == m.data && op == m.op then None
  else Some (Component.Memory { m with addr; data; op })

let has_refs = List.exists (function Expr.Ref _ -> true | _ -> false)

(* Expression -> value, tracking the running bit position exactly as
   [Expr.atom_contribution] does (filling atoms jump it to the word): each
   atom is placed at the position the atoms to its right leave.  A sum of
   known parts is known; a single unknown part plus zero is that part. *)
type total = { mutable known : int; mutable others : int; mutable other : value }

let add t = function
  | Known v -> t.known <- t.known + v
  | x ->
      t.others <- t.others + 1;
      t.other <- x

let rec place ~use cur t = function
  | [] -> 0
  | atom :: rest -> (
      let id = match atom with Expr.Ref _ -> next cur | _ -> -1 in
      let numbits = place ~use cur t rest in
      match atom with
      | Expr.Const { number; width = None } ->
          t.known <- t.known + (Number.value number lsl numbits);
          Bits.word_bits
      | Expr.Const { number; width = Some w } ->
          let w = Number.value w in
          t.known <- t.known + ((Number.value number land Bits.ones w) lsl numbits);
          numbits + w
      | Expr.Bitstring s ->
          t.known <- t.known + (bitstring_value s lsl numbits);
          numbits + String.length s
      | Expr.Ref { field; _ } -> (
          match field_bounds field with
          | None ->
              add t (shl (use id) numbits);
              Bits.word_bits
          | Some (lo, hi) ->
              add t (shl (ext (use id) lo hi) numbits);
              numbits + (hi - lo + 1)))

let value_of_expr ~use cur atoms =
  let t = { known = 0; others = 0; other = Unknown } in
  ignore (place ~use cur t atoms : int);
  if t.others = 0 then Known t.known
  else if t.others = 1 && t.known = 0 then t.other
  else Unknown

(* ------------------------------------------------------------------ *)
(* Width facts.  [Width.infer] is sound — value in [0, 2^w) whenever the
   claimed width is below the word — except for components whose value a
   fault plan may perturb.  Taint every component transitively reachable
   (in the reader direction) from a kept one and refuse width claims on
   tainted components, and on memories initialized with negative cells
   (which escape the accounting's non-negative value model).  A bound of
   [-1] means no claim. *)

(* One worklist pass over reverse (producer -> reader) edges, the same
   queue discipline as DCE's liveness below. *)
let taint_closure refs keep =
  let n = Array.length refs in
  let tainted = Array.make n false in
  if keep <> [] then begin
    let readers = Array.make n [] in
    Array.iteri (fun r -> Array.iter (fun p -> readers.(p) <- r :: readers.(p))) refs;
    let queue = Queue.create () in
    let mark i =
      if not tainted.(i) then begin
        tainted.(i) <- true;
        Queue.add i queue
      end
    in
    List.iter mark keep;
    while not (Queue.is_empty queue) do
      List.iter mark readers.(Queue.pop queue)
    done
  end;
  tainted

let bounded_widths ~tainted comps widths =
  Array.mapi
    (fun i (c : Component.t) ->
      let negative_cells =
        match c.Component.kind with
        | Component.Memory { init = Some cells; _ } -> Array.exists (fun v -> v < 0) cells
        | _ -> false
      in
      if tainted.(i) || negative_cells || widths.(i) >= Bits.word_bits then -1
      else widths.(i))
    comps

(* A sound upper bound on an expression's value under the width bounds
   [bw]; [-1] when no bound is provable (the value may even be negative).
   Mirrors the evaluator's placement arithmetic. *)
let expr_ubound ~bw cur atoms =
  let acc = ref 0 in
  let add v = if !acc >= 0 then acc := if v >= 0 && v <= Bits.mask then !acc + v else -1 in
  let rec go = function
    | [] -> 0
    | atom :: rest -> (
        let id = match atom with Expr.Ref _ -> next cur | _ -> -1 in
        let numbits = go rest in
        match atom with
        | Expr.Const { number; width = None } ->
            let v = Number.value number in
            add (if v >= 0 then v lsl numbits else -1);
            Bits.word_bits
        | Expr.Const { number; width = Some w } ->
            let w = Number.value w in
            add ((Number.value number land Bits.ones w) lsl numbits);
            numbits + w
        | Expr.Bitstring s ->
            add (bitstring_value s lsl numbits);
            numbits + String.length s
        | Expr.Ref { field; _ } -> (
            let w = bw.(id) in
            match field_bounds field with
            | None ->
                add (if w >= 0 then Bits.ones w lsl numbits else -1);
                Bits.word_bits
            | Some (lo, hi) ->
                let fw = hi - lo + 1 in
                let bound =
                  if w >= 0 && w <= lo then 0
                  else if w >= 0 && w - lo < fw then Bits.ones (w - lo)
                  else Bits.ones fw
                in
                add (bound lsl numbits);
                numbits + fw))
  in
  ignore (go atoms : int);
  if !acc <= Bits.mask then !acc else -1

(* Can evaluating this component itself raise?  ALUs are total (reads never
   fail either); a selector raises iff its select can leave the case
   range.  Memory address errors belong to the memory phase, which the
   optimizer never reorders. *)
let never_errors ~bw cur (c : Component.t) =
  match c.Component.kind with
  | Component.Alu _ -> true
  | Component.Selector { select; cases } ->
      let bound = expr_ubound ~bw cur select in
      bound >= 0 && bound < Array.length cases
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
    (* [comps] and [refs] hold the current component and its references;
       a pass that rewrites a component replaces both entries.  They start
       as copies of the analysis's resolved program, which stays untouched:
       one raw analysis may be optimized more than once. *)
    let comps = Array.copy analysis.Analysis.comps in
    let refs = Array.copy analysis.Analysis.refs in
    let n = Array.length comps in
    let ids_of names = List.filter_map (Spec.Names.find_opt analysis.Analysis.ids) names in
    (* Width rules are compiled once, and re-compiled only for the
       components a pass rewrites. *)
    let widths = if has Narrow || has Dce then Some (Width.plan n) else None in
    Option.iter
      (fun plan -> Array.iteri (fun i c -> Width.update plan i ~refs:refs.(i) c) comps)
      widths;
    let order = analysis.Analysis.order in
    let folded = ref 0
    and stubbed = ref 0
    and fused = ref 0
    and narrowed = ref 0 in
    (* Opaque components are kept verbatim: traced ones (their widths feed
       VCD headers, their values the per-cycle trace), fault-plan targets,
       and every memory. *)
    let opaque = Array.make n false in
    let keep = ids_of keep in
    List.iter (fun i -> opaque.(i) <- true) (ids_of (Spec.traced_names spec) @ keep);
    Array.iter (fun i -> opaque.(i) <- true) analysis.Analysis.memories;
    let tainted = taint_closure refs keep in
    let cur = { ids = [||]; pos = 0 } and kept = { buf = Array.make 64 0; len = 0 } in
    let bounded () = bounded_widths ~tainted comps (Width.solve (Option.get widths)) in
    (* Walk every component with [f]; when [f] returns a new kind, it and
       the references [f] kept replace the component's entries. *)
    let rewrite f =
      Array.iteri
        (fun i (c : Component.t) ->
          cur.ids <- refs.(i);
          cur.pos <- 0;
          kept.len <- 0;
          match f i c with
          | None -> ()
          | Some kind ->
              comps.(i) <- { c with Component.kind };
              refs.(i) <- Array.sub kept.buf 0 kept.len;
              Option.iter (fun plan -> Width.update plan i ~refs:refs.(i) comps.(i)) widths)
        comps
    in
    (* --- constant propagation ------------------------------------------ *)
    let consts = Array.make n (-1) in
    if has Constprop then begin
      (* A component sees the values of the references evaluated before it
         in [order]; later ones (and opaque ones) read as unknown, exactly as
         one sweep in [order] would see them.  The components are visited in
         a depth-first post-order over those dependencies, started in
         declaration order, which reads the spec's memory far more
         sequentially than the analysis's level-by-level order. *)
      let rank = Array.make n max_int in
      Array.iteri (fun k i -> rank.(i) <- k) order;
      let values = Array.make n Unknown in
      let evaluate i =
        let use j = if opaque.(j) || rank.(j) >= rank.(i) then Unknown else values.(j) in
        cur.ids <- refs.(i);
        cur.pos <- 0;
        let value e = value_of_expr ~use cur e in
        let v =
          match comps.(i).Component.kind with
          | Component.Alu { fn; left; right } ->
              let f = value fn in
              let l = value left in
              alu f l (value right)
          | Component.Selector { select; cases } ->
              let s = value select in
              sel s (Array.map value cases)
          | Component.Memory _ -> assert false
        in
        values.(i) <- v;
        match v with
        | Known k when k >= 0 ->
            (* A known value implies the component can never raise
               (selectors only fold through in-range selects), so a
               constant wire is observably identical.  Negative constants
               are left alone: they cannot be written back as source
               literals. *)
            consts.(i) <- k;
            incr folded
        | _ -> ()
      in
      let visited = Array.make n false in
      let dependency i j = (not visited.(j)) && (not opaque.(j)) && rank.(j) < rank.(i) in
      (* The DFS stack: a component and the index of its next reference. *)
      let stack = Array.make n 0 and next_ref = Array.make n 0 in
      for root = 0 to n - 1 do
        if rank.(root) < max_int && not (visited.(root) || opaque.(root)) then begin
          visited.(root) <- true;
          stack.(0) <- root;
          next_ref.(0) <- 0;
          let top = ref 0 in
          while !top >= 0 do
            let i = stack.(!top) and k = next_ref.(!top) in
            if k < Array.length refs.(i) then begin
              next_ref.(!top) <- k + 1;
              let j = refs.(i).(k) in
              if dependency i j then begin
                visited.(j) <- true;
                incr top;
                stack.(!top) <- j;
                next_ref.(!top) <- 0
              end
            end
            else begin
              evaluate i;
              decr top
            end
          done
        end
      done;
      (* Reads of a folded component become literal constants. *)
      let rewrite_expr =
        map_share (fun atom ->
            match atom with
            | Expr.Ref { field; _ } -> (
                let i = next cur in
                let v = consts.(i) in
                if v < 0 then begin
                  push kept i;
                  atom
                end
                else
                  match field_bounds field with
                  | None -> const_atom v
                  | Some (lo, hi) ->
                      Expr.num_w
                        ((v land Bits.field_mask ~lo ~hi) lsr lo)
                        ~width:(hi - lo + 1))
            | _ -> atom)
      in
      (* The operands a constant function ignores become constant zero. *)
      let zero = [ Expr.num_w 0 ~width:1 ] in
      let operand ~ignored e =
        let mark = kept.len in
        let e' = rewrite_expr e in
        if ignored && has_refs e' then begin
          kept.len <- mark;
          incr fused;
          zero
        end
        else e'
      in
      rewrite (fun i c ->
          match c.Component.kind with
          | Component.Memory m ->
              (* Memory expressions are rewritten (value-exactly) even though
                 the memory itself is untouchable state. *)
              map_memory rewrite_expr m
          | _ when opaque.(i) -> None
          | _ when consts.(i) >= 0 -> Some (wire_kind [ const_atom consts.(i) ])
          | Component.Alu { fn; left; right } ->
              let fn' = rewrite_expr fn in
              let ignores_left, ignores_right =
                match Option.map Component.alu_function_of_code (Expr.const_value fn') with
                | Some (Component.Fn_left | Component.Fn_not) -> (false, true)
                | Some Component.Fn_right -> (true, false)
                | Some (Component.Fn_zero | Component.Fn_unused) -> (true, true)
                | _ -> (false, false)
              in
              let left' = operand ~ignored:ignores_left left in
              let right' = operand ~ignored:ignores_right right in
              if fn' == fn && left' == left && right' == right then None
              else Some (Component.Alu { fn = fn'; left = left'; right = right' })
          | Component.Selector { select; cases } -> (
              let select' = rewrite_expr select in
              match Expr.const_value select' with
              | Some s when s >= 0 && s < Array.length cases ->
                  (* Constant in-range select: the selector can never
                     raise, so it degrades to a wire of the chosen case,
                     and only that case's references remain. *)
                  let case = ref [] in
                  Array.iteri
                    (fun k e ->
                      let mark = kept.len in
                      let e' = rewrite_expr e in
                      if k = s then case := e' else kept.len <- mark)
                    cases;
                  incr fused;
                  Some (wire_kind !case)
              | _ ->
                  let cases' = Array.map rewrite_expr cases in
                  if select' == select && Array.for_all2 ( == ) cases' cases then None
                  else Some (Component.Selector { select = select'; cases = cases' })))
    end;
    (* --- narrow: width-driven mask elision, trims, case truncation ---- *)
    if has Narrow then begin
      (* One sweep, over widths inferred once from the constprop'd
         components. *)
      let bw = bounded () in
      let zero_field lo hi = Expr.num_w 0 ~width:(hi - lo + 1) in
      (* Position-independent rewrite: a field provably beyond the
         producer's width is constant zero of the same width. *)
      let narrow_rest =
        map_share (fun atom ->
            match atom with
            | Expr.Ref { field; _ } -> (
                let i = next cur in
                match field_bounds field with
                | Some (lo, hi) when bw.(i) >= 0 && bw.(i) <= lo ->
                    incr narrowed;
                    zero_field lo hi
                | _ ->
                    push kept i;
                    atom)
            | _ -> atom)
      in
      (* The leftmost atom additionally allows layout changes: dropping a
         zero field outright, trimming the high bound, or — when the field
         covers the whole producer — eliding the mask into a plain (filling)
         reference, which is the cheap case for every backend. *)
      let narrow_expr e =
        match e with
        | [] -> e
        | (Expr.Ref { name; field } as head) :: rest -> (
            let i = next cur in
            let w = bw.(i) in
            let head' =
              match field_bounds field with
              | Some (lo, hi) when w >= 0 && w <= lo ->
                  incr narrowed;
                  (* drop: contributes nothing above *)
                  if rest <> [] then None else Some (zero_field lo hi)
              | Some (lo, hi) when w >= 0 && lo = 0 && w <= hi + 1 && hi < Bits.word_bits - 1 ->
                  (* mask elision: value < 2^w <= 2^(hi+1) *)
                  incr narrowed;
                  push kept i;
                  Some (Expr.ref_ name)
              | Some (lo, hi) when w >= 0 && hi > w - 1 ->
                  incr narrowed;
                  push kept i;
                  Some (Expr.ref_range name lo (w - 1))
              | _ ->
                  push kept i;
                  Some head
            in
            let rest' = narrow_rest rest in
            match head' with
            | Some h when h == head && rest' == rest -> e
            | Some h -> h :: rest'
            | None -> rest')
        | head :: rest ->
            let rest' = narrow_rest rest in
            if rest' == rest then e else head :: rest'
      in
      rewrite (fun i c ->
          match c.Component.kind with
          | Component.Memory m -> map_memory narrow_expr m
          | _ when opaque.(i) -> None
          | Component.Alu { fn; left; right } ->
              let fn' = narrow_expr fn in
              let left' = narrow_expr left in
              let right' = narrow_expr right in
              if fn' == fn && left' == left && right' == right then None
              else Some (Component.Alu { fn = fn'; left = left'; right = right' })
          | Component.Selector { select; cases } ->
              let select' = narrow_expr select in
              let bound = expr_ubound ~bw { ids = kept.buf; pos = 0 } select' in
              (* Unreachable cases: the select provably stays below the
                 truncated length, so the (absence of an) overrun error is
                 preserved. *)
              let reachable =
                if bound >= 0 && bound + 1 < Array.length cases then bound + 1
                else Array.length cases
              in
              let cases' =
                Array.mapi
                  (fun k e ->
                    let mark = kept.len in
                    let e' = narrow_expr e in
                    if k >= reachable then kept.len <- mark;
                    e')
                  cases
              in
              if reachable < Array.length cases then begin
                incr narrowed;
                Some
                  (Component.Selector
                     { select = select'; cases = Array.sub cases' 0 reachable })
              end
              else if select' == select && Array.for_all2 ( == ) cases' cases then None
              else Some (Component.Selector { select = select'; cases = cases' }))
    end;
    (* --- dce: stub components no observable path can reach ------------ *)
    let dead =
      if not (has Dce) then []
      else begin
        let bw = bounded () in
        let live = Array.make n false in
        let queue = Queue.create () in
        let mark i =
          if not live.(i) then begin
            live.(i) <- true;
            Queue.add i queue
          end
        in
        (* Roots: state and I/O (memories), everything the trace prints,
           fault targets, and any component whose own evaluation might
           raise (its error — and therefore its input values — is
           observable even if its output is not). *)
        Array.iteri
          (fun i c ->
            cur.ids <- refs.(i);
            cur.pos <- 0;
            if opaque.(i) || not (never_errors ~bw cur c) then mark i)
          comps;
        while not (Queue.is_empty queue) do
          Array.iter mark refs.(Queue.pop queue)
        done;
        let dead = ref [] in
        Array.iteri
          (fun i (c : Component.t) ->
            if not (live.(i) || opaque.(i) || Component.is_memory c) then begin
              dead := c.Component.name :: !dead;
              incr stubbed;
              comps.(i) <- { c with Component.kind = stub_kind };
              refs.(i) <- [||]
            end)
          comps;
        List.rev !dead
      end
    in
    (* --- planted miscompile: stale reads across the order boundary ---- *)
    let order =
      if skew && Array.length order >= 2 then
        Array.init (Array.length order) (fun k -> order.(Array.length order - 1 - k))
      else order
    in
    (* The ids stay valid: no pass adds, removes or renames a component. *)
    let analysis' =
      {
        analysis with
        Analysis.spec = { spec with Spec.components = Array.to_list comps };
        comps;
        refs;
        order;
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
