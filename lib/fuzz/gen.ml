open Asim_core

type size = {
  max_comb : int;
  max_mem : int;
  cycles : int;
  wide : bool;
}

let default_size = { max_comb = 6; max_mem = 3; cycles = 20; wide = false }

(* Draws, [a..b] and [0..n] inclusive. *)
let range st a b = if b <= a then a else a + Random.State.int st (b - a + 1)

let upto st n = if n <= 0 then 0 else Random.State.int st (n + 1)

let mem_name i = Printf.sprintf "m%d" i

let comb_name i = Printf.sprintf "c%d" i

(* The shape fixes how many components exist, so atom generators can pick
   names that are guaranteed to resolve. *)
type shape = { n_comb : int; n_mem : int }

(* A narrow atom reading earlier combinational components (index < limit) or
   any memory; every atom is a small field, so widths always fit. *)
let gen_atom st ~shape ~limit =
  let gen_ref () =
    let use_mem =
      if limit = 0 then true
      else if shape.n_mem = 0 then false
      else Random.State.bool st
    in
    let name =
      if use_mem then mem_name (upto st (shape.n_mem - 1))
      else comb_name (upto st (limit - 1))
    in
    let lo = upto st 8 in
    let w = range st 1 4 in
    Expr.ref_range name lo (lo + w - 1)
  and gen_const () =
    let v = upto st 15 in
    let w = range st 1 4 in
    Expr.num_w v ~width:w
  in
  if limit = 0 && shape.n_mem = 0 then gen_const ()
  else if Random.State.bool st then gen_ref ()
  else gen_const ()

let gen_expr st ~shape ~limit =
  let n = range st 1 3 in
  List.init n (fun _ -> gen_atom st ~shape ~limit)

(* A filling atom: a whole-component reference or an un-suffixed constant.
   Legal only leftmost; exercises full-word values and negative
   intermediates. *)
let gen_filling_atom st ~shape ~limit =
  let gen_ref () =
    let use_mem =
      if limit = 0 then true
      else if shape.n_mem = 0 then false
      else Random.State.bool st
    in
    let name =
      if use_mem then mem_name (upto st (shape.n_mem - 1))
      else comb_name (upto st (limit - 1))
    in
    Expr.ref_ name
  in
  if (limit > 0 || shape.n_mem > 0) && Random.State.bool st then gen_ref ()
  else Expr.num (upto st 65535)

let gen_expr_wide st ~shape ~limit =
  let narrow = gen_expr st ~shape ~limit in
  match range st 0 2 with
  | 0 -> narrow
  | 1 -> gen_filling_atom st ~shape ~limit :: narrow
  | _ -> [ gen_filling_atom st ~shape ~limit ]

let gen_alu st ~shape ~limit ~wide name =
  let fn =
    if Random.State.bool st then [ Expr.num (upto st 13) ]
    else gen_expr st ~shape ~limit
  in
  let operand = if wide then gen_expr_wide else gen_expr in
  let left = operand st ~shape ~limit in
  let right = operand st ~shape ~limit in
  { Component.name; kind = Component.Alu { fn; left; right } }

let gen_selector st ~shape ~limit name =
  let bits = range st 1 3 in
  let cases_n = 1 lsl bits in
  let select =
    if limit = 0 && shape.n_mem = 0 then [ Expr.num (upto st (cases_n - 1)) ]
    else
      match gen_atom st ~shape ~limit with
      | Expr.Ref { name; _ } -> [ Expr.ref_range name 0 (bits - 1) ]
      | _ -> [ Expr.num (upto st (cases_n - 1)) ]
  in
  let cases = Array.init cases_n (fun _ -> gen_expr st ~shape ~limit) in
  { Component.name; kind = Component.Selector { select; cases } }

let gen_memory st ~shape ~wide name =
  let limit = shape.n_comb in
  let addr_bits = range st 0 4 in
  let cells = 1 lsl addr_bits in
  let addr =
    if addr_bits = 0 then [ Expr.num 0 ]
    else
      match gen_atom st ~shape ~limit with
      | Expr.Ref { name; _ } -> [ Expr.ref_range name 0 (addr_bits - 1) ]
      | _ -> [ Expr.num (upto st (cells - 1)) ]
  in
  let data =
    if wide then gen_expr_wide st ~shape ~limit else gen_expr st ~shape ~limit
  in
  let op =
    if Random.State.bool st then [ Expr.num (upto st 15) ]
    else [ gen_atom st ~shape ~limit ]
  in
  let init =
    if Random.State.bool st then None
    else Some (Array.init cells (fun _ -> upto st 1000))
  in
  { Component.name; kind = Component.Memory { addr; data; op; cells; init } }

let spec size st =
  let wide = size.wide in
  let n_comb = range st 1 (max 1 size.max_comb) in
  let n_mem = range st 1 (max 1 size.max_mem) in
  let shape = { n_comb; n_mem } in
  let combs =
    List.init n_comb (fun i ->
        if Random.State.bool st then gen_alu st ~shape ~limit:i ~wide (comb_name i)
        else gen_selector st ~shape ~limit:i (comb_name i))
  in
  let mems = List.init n_mem (fun i -> gen_memory st ~shape ~wide (mem_name i)) in
  let components = combs @ mems in
  let decls =
    List.map
      (fun (c : Component.t) ->
        { Spec.name = c.name; traced = wide || Random.State.bool st })
      components
  in
  {
    Spec.comment = (if wide then "random-wide" else "random");
    cycles = Some size.cycles;
    decls;
    components;
  }

(* --- structured workloads ------------------------------------------------ *)

(* The structured generators below scale the same width/range discipline as
   the random generator (narrow fields, field-narrowed selects, constant
   memory ops) up to 1k-100k components, arranged as replicated chains with
   a known coupling shape.  Names are letters+digits only, as
   [Spec.validate] requires. *)

let struct_field st name =
  let lo = upto st 4 in
  let w = range st 1 4 in
  Expr.ref_range name lo (lo + w - 1)

(* Replica-crossing reads take the low bits: the values flowing through a
   generated design are a few bits wide, so a random high-bit field of a
   neighbouring replica is too often constant zero — a cross edge the
   dependency graph sees but no observable ever feels, which would let a
   lost wake-up (the planted ASIM_FLAT_SKEW) slip past the oracle. *)
let struct_low_field st name = Expr.ref_range name 0 (range st 1 4 - 1)

let struct_const st = Expr.num_w (upto st 15) ~width:(range st 1 4)

(* ALU functions that propagate every change of the right operand; a cross
   value fed through [Fn_zero] or [Fn_left] would be another dead edge. *)
let right_sensitive_fns = [| 4 (* add *); 5 (* sub *); 9 (* or *); 10 (* xor *) |]

(* A combinational stage reading [prev] (its upstream neighbour, possibly a
   memory) and optionally [cross] (a component in another replica, coupling
   the replicas combinationally).  Roughly one stage in ten is a
   selector, keyed on two bits of [prev] with exactly four cases so the
   select can never leave range. *)
let struct_stage st ~prev ~cross name =
  if range st 0 9 = 0 then
    let select = [ Expr.ref_range prev 0 1 ] in
    let case () =
      match cross with
      | Some c when Random.State.bool st ->
          [ struct_low_field st c; struct_const st ]
      | _ -> [ struct_field st prev; struct_const st ]
    in
    {
      Component.name;
      kind = Component.Selector { select; cases = Array.init 4 (fun _ -> case ()) };
    }
  else
    let left = [ struct_field st prev; struct_const st ] in
    let fn, right =
      match cross with
      | Some c ->
          ( [ Expr.num right_sensitive_fns.(upto st 3) ],
            [ struct_low_field st c ] )
      | None -> ([ Expr.num (range st 0 13) ], [ struct_const st ])
    in
    { Component.name; kind = Component.Alu { fn; left; right } }

(* One single-cell register: plain write (op 1 traces nothing), data fed by
   a narrow field of [src]. *)
let struct_reg st ~src name =
  {
    Component.name;
    kind =
      Component.Memory
        {
          addr = [ Expr.num 0 ];
          data = [ struct_field st src; struct_const st ];
          op = [ Expr.num 1 ];
          cells = 1;
          init = Some [| upto st 1000 |];
        };
  }

(* Tracing a deterministic ~1% sample keeps engine-diffing through the trace
   stream meaningful without drowning large runs in output. *)
let struct_decls components =
  List.mapi
    (fun i (c : Component.t) -> { Spec.name = c.name; traced = i mod 97 = 0 })
    components

let pipeline ?(cycles = 200) ~cores ~depth ~seed () =
  let cores = max 1 cores and depth = max 1 depth in
  let st = Random.State.make [| 0x6e57; 0x91be; seed |] in
  let stage_name r s = Printf.sprintf "g%ds%d" r s in
  let reg_name r = Printf.sprintf "g%dm" r in
  (* Core [r]: stages s0 .. s(depth-1) in a chain fed from the core's
     register, each stage past the first also tapping the matching stage of
     core [r-1] — so replicas are *not* independent: a change fans out
     across cores within the cycle.  The register latches the last stage,
     closing the cycle through state. *)
  let core r =
    let stages =
      List.init depth (fun s ->
          let prev = if s = 0 then reg_name r else stage_name r (s - 1) in
          let cross = if r > 0 && s > 0 then Some (stage_name (r - 1) s) else None in
          struct_stage st ~prev ~cross (stage_name r s))
    in
    stages @ [ struct_reg st ~src:(stage_name r (depth - 1)) (reg_name r) ]
  in
  let components = List.concat (List.init cores core) in
  {
    Spec.comment =
      Printf.sprintf "genspec pipeline cores=%d depth=%d seed=%d" cores depth seed;
    cycles = Some cycles;
    decls = struct_decls components;
    components;
  }

let mesh ?(cycles = 200) ~width ~height ~seed () =
  let w = max 1 width and h = max 1 height in
  let st = Random.State.make [| 0x6e57; 0x3e54; seed |] in
  let node_name x y = Printf.sprintf "n%dx%d" x y in
  let reg_name y = Printf.sprintf "r%dm" y in
  (* Row [y]: a west-to-east combinational chain seeded from the row's
     register, every node also reading the *previous* row's register — all
     inter-row traffic flows through state, so rows share no combinational
     edges. *)
  let row y =
    let nodes =
      List.init w (fun x ->
          let prev = if x = 0 then reg_name y else node_name (x - 1) y in
          let name = node_name x y in
          let north = reg_name ((y + h - 1) mod h) in
          let stage = struct_stage st ~prev ~cross:None name in
          match stage.Component.kind with
          | Component.Alu a ->
              (* Grafting the north field onto the right operand only makes
                 the inter-row edge live if [fn] propagates right-operand
                 changes — redraw it like the pipeline generator's cross
                 path does. *)
              {
                stage with
                Component.kind =
                  Component.Alu
                    {
                      a with
                      Component.fn =
                        [ Expr.num right_sensitive_fns.(upto st 3) ];
                      right = [ struct_low_field st north ];
                    };
              }
          | _ -> stage)
    in
    nodes @ [ struct_reg st ~src:(node_name (w - 1) y) (reg_name y) ]
  in
  let components = List.concat (List.init h row) in
  {
    Spec.comment =
      Printf.sprintf "genspec mesh width=%d height=%d seed=%d" w h seed;
    cycles = Some cycles;
    decls = struct_decls components;
    components;
  }

let spec_at size ~seed ~index =
  (* Each index derives its own state, so replaying spec [index] never needs
     the indices before it. *)
  let st = Random.State.make [| 0x5eed; seed; index |] in
  let s = spec size st in
  { s with Spec.comment = Printf.sprintf "fuzz seed=%d index=%d" seed index }
