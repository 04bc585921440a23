(** The paper's program model (Section 3.1.1 / Appendix A.1).

    A program is a sequence of [m] random memory operations followed by the
    critical LD and critical ST of the canonical atomicity violation. The
    [m] prefix operations access pairwise-distinct locations; only the
    critical pair shares one. Indices here are 0-based: prefix operations
    occupy initial positions [0 .. m-1], the critical load is at [m], the
    critical store at [m+1]. *)

type t
(** An initial program order S0. *)

val generate : ?p:float -> Memrel_prob.Rng.t -> m:int -> t
(** [generate rng ~m] draws the prefix i.i.d. with [Pr[ST] = p]
    (default 1/2, the paper's normal form) and appends the critical pair.
    Requires [m >= 0] and [p] in [0, 1]. *)

val generate_with_gap : ?p:float -> Memrel_prob.Rng.t -> m:int -> gap:int -> t
(** [generate_with_gap rng ~m ~gap] generalizes the canonical bug: [gap]
    random plain operations sit between the critical LD and the critical ST
    in the initial program order — the programmer's intended-atomic section
    spans [gap + 2] instructions rather than the paper's minimal pair
    (which is [gap = 0], and what this returns then). Under settling the
    interior operations can migrate out of (or further into) the window,
    model-permitting. Requires [gap >= 0]. *)

val of_kinds : Memrel_memmodel.Op.kind list -> t
(** [of_kinds ks] builds the deterministic program with prefix [ks] plus the
    critical pair. Kept for tests, which settle hand-written programs. *)

val of_ops : Memrel_memmodel.Op.t list -> t
(** [of_ops ops] builds a program from explicit operations (may include
    fences). Exactly one critical load followed later by exactly one
    critical store must be present.
    Raises [Invalid_argument] otherwise. *)

val with_fences :
  every:int -> kind:Memrel_memmodel.Fence.t -> t -> t
(** [with_fences ~every ~kind t] inserts a fence after every [every]
    prefix operations (Section 7 extension). Requires [every >= 1]. *)

val length : t -> int
(** Total instruction count (m + 2 plus any fences). *)

val op : t -> int -> Memrel_memmodel.Op.t
(** [op t i] is the instruction at initial position [i]. *)

val ops : t -> Memrel_memmodel.Op.t array
(** A fresh copy of the instruction array in initial program order. *)

val critical_load_index : t -> int
val critical_store_index : t -> int

val to_string : t -> string
(** One character per instruction, top first (e.g. ["LSSL...ls"]). *)

val pp : Format.formatter -> t -> unit
