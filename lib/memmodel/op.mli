(** Memory operations.

    The paper's program model (Section 3.1.1) deals in two instruction
    types, LD and ST, each accessing a distinct location except for the
    critical pair which both access the shared variable [x]. We also carry
    fences for the Section 7 extension; plain analysis paths never generate
    them. *)

type kind = LD | ST

type role =
  | Plain  (** one of the [m] prefix instructions, unique location *)
  | Critical_load  (** x_{m+1}: Line 1 of the canonical bug, loads [x] *)
  | Critical_store  (** x_{m+2}: Line 3 of the canonical bug, stores [x] *)

type t =
  | Mem of { kind : kind; role : role }
  | Fence of Fence.t  (** Section 7 extension; never moves, may block swaps *)

val plain : kind -> t
val critical_load : t
val critical_store : t
val fence : Fence.t -> t

val kind_of : t -> kind option
(** [kind_of t] is the memory-operation kind, or [None] for a fence. *)

val is_critical : t -> bool
val is_critical_load : t -> bool
val is_critical_store : t -> bool
val is_fence : t -> bool

val same_location : t -> t -> bool
(** True exactly when both operands are the two critical instructions (the
    model assumes all other locations are distinct — footnote 2). *)

val to_char : t -> char
(** One-character rendering: 'L', 'S', critical as 'l'/'s', fences as
    'A'/'R'/'F'. Used by trace output and tests. *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
