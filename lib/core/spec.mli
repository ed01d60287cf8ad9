(** A complete ASIM II specification: the unit both simulators consume. *)

type decl = { name : string; traced : bool }
(** One entry of the name list; a trailing [*] in the source marks the
    component for per-cycle tracing. *)

type t = {
  comment : string;  (** first line of the file, without the leading [#] *)
  cycles : int option;  (** [= N] directive, if present *)
  decls : decl list;  (** in source order; trace output follows this order *)
  components : Component.t list;  (** in source order *)
}

val find : t -> string -> Component.t option

val find_exn : t -> string -> Component.t
(** Raises {!Error.Error} with the paper's "Component <x> not found."
    message. *)

val traced_names : t -> string list
(** Names to print each cycle, in declaration-list order. *)

val is_valid_name : string -> bool
(** Letters and digits only, starting with a letter (the paper's
    [checkname]). *)

module Names : Hashtbl.S with type key = string
(** Tables keyed by component name. *)

val index : t -> int Names.t
(** Structural validation: component names well-formed and unique, every
    component structurally valid ({!Component.validate}).  Returns each
    component's position in [components], by name.  Cross-reference and
    dependency checks live in [Asim_analysis]. *)

val validate : t -> unit
(** {!index} for its checks alone. *)

val make :
  ?comment:string ->
  ?cycles:int ->
  ?decls:decl list ->
  Component.t list ->
  t
(** Build a spec programmatically.  When [decls] is omitted, every component
    is declared untraced in definition order. *)
