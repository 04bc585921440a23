(** Backtracking trail: per-mutation undo records instead of snapshots.

    The {!Order} closure behind the axiomatic solver mutates a flat [int]
    store. A trail records, for each mutated slot, its pre-mutation value;
    {!mark} opens a decision scope in O(1) and {!undo} rewinds exactly the
    slots the scope touched — the cost of backtracking becomes proportional
    to the work done inside the scope, not to the size of the structure
    (the seed implementation copied every row at every search node).
    Records are replayed newest-first so a slot saved twice within one
    scope ends on its oldest value. *)

type t

val create : ?capacity:int -> unit -> t
(** An empty trail; the arrays grow geometrically past [capacity]
    (default 64). *)

val save : t -> int -> int -> unit
(** [save t slot old] records that [slot] held [old] before the mutation
    about to happen. The caller mutates; the trail only remembers. *)

val mark : t -> unit
(** Open a scope: remember the current record count. O(1), no
    allocation (amortized). *)

val undo : t -> restore:(int -> int -> unit) -> unit
(** Close the most recent scope: call [restore slot old] for every record
    saved since its {!mark}, newest first, and drop them. Raises
    [Invalid_argument] with no open scope. *)
