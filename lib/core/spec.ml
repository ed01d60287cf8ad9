type decl = { name : string; traced : bool }

type t = {
  comment : string;
  cycles : int option;
  decls : decl list;
  components : Component.t list;
}

let find t name =
  List.find_opt (fun (c : Component.t) -> String.equal c.name name) t.components

let find_exn t name =
  match find t name with
  | Some c -> c
  | None -> Error.failf Error.Analysis "Component <%s> not found." name

let traced_names t =
  List.filter_map (fun d -> if d.traced then Some d.name else None) t.decls

let is_letter c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let is_digit c = c >= '0' && c <= '9'

let rec alnum_from s i =
  i >= String.length s || ((is_letter s.[i] || is_digit s.[i]) && alnum_from s (i + 1))

let is_valid_name s = String.length s > 0 && is_letter s.[0] && alnum_from s 1

module Names = Hashtbl.Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let index t =
  let table = Names.create (max 16 (List.length t.components)) in
  List.iteri
    (fun i (c : Component.t) ->
      if not (is_valid_name c.name) then
        Error.failf ~component:c.name Error.Analysis
          "Component name %s invalid, use letters and numbers only." c.name;
      let before = Names.length table in
      Names.replace table c.name i;
      if Names.length table = before then
        Error.failf ~component:c.name Error.Analysis
          "component %s defined more than once" c.name;
      Component.validate c)
    t.components;
  table

let validate t = ignore (index t : int Names.t)

let make ?(comment = "generated specification") ?cycles ?decls components =
  let decls =
    match decls with
    | Some decls -> decls
    | None ->
        List.map (fun (c : Component.t) -> { name = c.name; traced = false }) components
  in
  { comment; cycles; decls; components }
