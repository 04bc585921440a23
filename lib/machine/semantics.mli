(** Operational semantics per memory model: the transition relation.

    - {b SC}: one interleaving choice — each step atomically executes the
      next instruction of some thread against shared memory.
    - {b TSO}: stores enter a per-thread FIFO buffer; a separate
      nondeterministic flush step publishes the oldest entry. Loads forward
      from the own buffer (newest matching entry) before reading memory.
      Full/Release fences execute only on an empty buffer; Acquire is a
      no-op (loads are already in order).
    - {b PSO}: like TSO but one FIFO per location, so stores to distinct
      locations may publish out of order.
    - {b WO}: out-of-order issue within a bounded window — any unexecuted
      instruction may execute once every earlier conflicting instruction
      has (register hazards, same-location accesses — including load/load,
      as read-read coherence requires — and fence
      edges); loads and stores act on memory directly. Fence edges follow
      the usual one-way readings: Acquire waits for earlier loads and
      blocks everything later; Release waits for everything earlier and
      blocks later stores; Full blocks both ways.

    Store atomicity is not relaxed (all threads see a single memory order
    of published stores), matching the paper's scope (Section 2.1). *)

type discipline =
  | Sc
  | Tso
  | Pso
  | Wo of { window : int }  (** max distance an instruction may run ahead *)

val buffered : discipline -> bool
(** Whether stores go through a store buffer (TSO, PSO) rather than act on
    memory directly (SC, WO). *)

val of_model : ?window:int -> Memrel_memmodel.Model.family -> discipline
(** [of_model family] picks the discipline for a paper model
    ([window] defaults to 8; [Custom] is rejected). *)

type label =
  | Exec of { thread : int; index : int }  (** instruction issue *)
  | Flush of { thread : int; loc : int }  (** store-buffer publish *)

val label_to_string : label -> string

val transitions : discipline -> State.t -> (label * State.t) list
(** All enabled transitions from a state; the empty list exactly on
    terminal states (every thread done, buffers drained). *)

val thread_transitions : discipline -> State.t -> int -> (label * State.t) list
(** [thread_transitions d st k]: the enabled transitions of thread [k]
    only. [transitions] is their concatenation over all threads, in thread
    order; exposed so the enumerator's partial-order reduction can select
    an ample thread without re-deriving the grouping from labels.
    A thread's enabledness depends only on its own context (program
    counter, window hazards, its buffers) — never on other threads or on
    shared memory — a fact the reduction's soundness argument relies on
    (DESIGN.md §8). *)

val conflicts : Instr.t array -> int -> int -> bool
(** [conflicts prog j i] (for [j < i]): must [j] execute before [i] under
    WO? Exposed for property tests. *)
