(** Memory events of a candidate execution.

    A litmus program induces one event per memory access: loads are read
    events [R], stores are write events [W], and atomic read-modify-writes
    are single update events [U] that are both a read and a write — the
    single-event encoding makes RMW atomicity fall out of the ordinary
    coherence axioms (an update reading anything but its immediate
    coherence predecessor closes an [fr;co] cycle). Register-only
    instructions ([Binop]) and fences generate no events: registers are
    thread-local dataflow, resolved at value-computation time, and fences
    contribute ordering edges only (see {!Axioms}). *)

type dir = R | W | U

type t = {
  id : int;  (** dense, program order within a thread, threads in order *)
  thread : int;
  index : int;  (** instruction index within the thread's program *)
  dir : dir;
  loc : int;
}

val is_read : t -> bool
(** [R] or [U]. *)

val is_write : t -> bool
(** [W] or [U]. *)

val same_loc : t -> t -> bool
val same_thread : t -> t -> bool

val kinds : t -> Memrel_memmodel.Op.kind list
(** The Table-1 instruction kinds an event participates in: [LD] for [R],
    [ST] for [W], both for [U]. This is the bridge to
    {!Memrel_memmodel.Model.relaxes}. *)

val label : t -> string
(** Short node name, ["e<id>"]. *)

val describe : ?loc_name:(int -> string) -> t -> string
(** One-line node description, e.g. ["e3: R m1 @0"]. *)

val of_programs : Memrel_machine.Instr.t array list -> t array
(** Events of a litmus program, in id order. *)

val locations : t array -> int list
(** Sorted distinct locations accessed. *)

val log10_naive_space : t array -> float
(** log10 of |co permutations| x |rf assignments| — the candidate space a
    generate-then-filter enumeration would visit. Computed in log space:
    the linear-space product of float factorials overflows to [infinity]
    around 171 same-location writes, poisoning downstream ratios with
    [nan]. *)

val naive_space_of_log10 : float -> float
(** The linear-space convenience [10 ** lg], saturating at [max_float] —
    never [infinity]/[nan]. *)
