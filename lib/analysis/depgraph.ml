open Asim_core

let order comps refs =
  let n = Array.length comps in
  let comb i = not (Component.is_memory comps.(i)) in
  (* Combinational-only dependency edges, each counted once: [seen.(d) = i]
     once the edge d -> i is in. *)
  let dependents = Array.make n [] in
  let indegree = Array.make n 0 in
  let seen = Array.make n (-1) in
  let ncomb = ref 0 in
  for i = 0 to n - 1 do
    if comb i then begin
      incr ncomb;
      let r = refs.(i) in
      for k = 0 to Array.length r - 1 do
        let d = r.(k) in
        if d >= 0 && seen.(d) <> i && comb d then begin
          seen.(d) <- i;
          dependents.(d) <- i :: dependents.(d);
          indegree.(i) <- indegree.(i) + 1
        end
      done
    end
  done;
  (* Kahn's algorithm in rounds: each round places every ready component in
     declaration order, so the result is deterministic and close to the
     source (identical to the original list-partition formulation, minus
     its quadratic rescans). *)
  let round = ref [] in
  for i = n - 1 downto 0 do
    if comb i && indegree.(i) = 0 then round := i :: !round
  done;
  let placed = ref [] in
  let nplaced = ref 0 in
  while !round <> [] do
    let next = ref [] in
    List.iter
      (fun i ->
        placed := i :: !placed;
        incr nplaced;
        List.iter
          (fun j ->
            indegree.(j) <- indegree.(j) - 1;
            if indegree.(j) = 0 then next := j :: !next)
          dependents.(i))
      !round;
    round := List.sort Int.compare !next
  done;
  if !nplaced < !ncomb then begin
    (* Every remaining component is on or behind a cycle; report the first
       two (in declaration order) for a diagnostic in the paper's style. *)
    let blocked = ref [] in
    for i = n - 1 downto 0 do
      if comb i && indegree.(i) > 0 then blocked := comps.(i).Component.name :: !blocked
    done;
    let names = !blocked in
    let a = List.nth names 0 in
    let b = if List.length names > 1 then List.nth names 1 else a in
    Error.failf ~component:a Error.Analysis
      "Circular dependency with %s and/or %s." a b
  end;
  Array.of_list (List.rev !placed)
