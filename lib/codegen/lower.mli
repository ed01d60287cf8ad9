(** Backend-neutral lowering of expressions.

    An expression denotes a sum of shifted bit-fields plus a constant; every
    source backend renders that sum in its own syntax.  The lowering performs
    the same placement arithmetic as the engines, so generated simulators
    agree with them bit-for-bit. *)

type term =
  | Const of int  (** all constant atoms, folded *)
  | Field of {
      name : string;
      mask : int option;  (** [None] = whole value, no masking *)
      shift : int;  (** > 0 shift left, < 0 shift right *)
    }

val lower : Asim_core.Expr.t -> term list
(** Terms in source order (fields left to right, folded constant last when
    non-zero).  Never empty: a pure-constant expression yields [[Const c]]. *)

val alu_const_function :
  Asim_core.Component.alu -> Asim_core.Component.alu_function option
(** The decoded function when the ALU's function expression is constant —
    the trigger for §4.4's inline code generation. *)

val memory_const_op : Asim_core.Component.memory -> int option
(** The operation value when constant — the trigger for §4.4's memory
    specialization. *)

val temp_elidable : Asim_analysis.Analysis.t -> int -> bool
(** §5.4's heuristic: the memory's temporary can be omitted from generated
    code when (a) its registered output is never read (not referenced, not
    traced, no trace lines) and (b) its operation is a constant read or
    write (no I/O side channel needs the value).  Staged like
    {!Asim_analysis.Analysis.memory_output_used}: apply it to the analysis
    once, then to each memory's id. *)

val memory_parts :
  Asim_analysis.Analysis.t -> (string * Asim_core.Component.memory * bool) list
(** Every memory in declaration order: its name, its definition, and
    whether {!temp_elidable} holds for it. *)

val order : Asim_analysis.Analysis.t -> Asim_core.Component.t list
(** The ALUs and selectors in evaluation order. *)

val is_memory : Asim_analysis.Analysis.t -> string -> bool
(** Does the name a generated expression reads belong to a memory (whose
    value lives in its temporary)? *)
