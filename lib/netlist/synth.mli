(** Component → hardware mapping (§5.3, Appendix F).

    "A hardware circuit can be easily built from a hardware specification in
    ASIM II. ... Enough information exists so that the engineer can choose
    appropriate components which perform the function of the specified
    component."  This module performs exactly that choice mechanically:
    every spec component becomes an instance backed by catalog parts sized
    by the inferred output width; the result is a bill of materials and a
    wiring list, i.e. the content of the thesis's Appendix F figure.

    Like the thesis, this is deliberately *not* an optimizing synthesizer
    ("it should be noted that this is not an optimum circuit"). *)

type instance = {
  component : string;  (** spec component name *)
  width : int;  (** inferred output width in bits *)
  parts : (Parts.t * int) list;  (** catalog parts and counts *)
  role : string;  (** human description, e.g. "register", "adder" *)
}

type wire = {
  from_component : string;
  bits : string;  (** field description: ["[3..4]"] or ["[all]"] *)
  to_component : string;
  to_port : string;  (** e.g. ["left"], ["select"], ["case 3"] *)
}

type t = {
  instances : instance list;
  wires : wire list;
  bom : (Parts.t * int) list;  (** aggregated, catalog order *)
}

val synthesize : Asim_analysis.Analysis.t -> t
(** One instance per component, in declaration order, sized by
    {!Asim_analysis.Analysis.widths}. *)

val bom_to_string : t -> string
(** Appendix F style parts list: one part per line with its count. *)

val wiring_to_string : t -> string

val instances_to_string : t -> string

val to_dot : t -> string
(** GraphViz block diagram: one box per component, one edge per wire. *)
