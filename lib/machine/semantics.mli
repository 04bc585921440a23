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

val enabled : discipline -> State.t -> label list
(** The labels of all enabled transitions, in thread order and within a
    thread in the order {!thread_enabled} gives; the empty list exactly on
    terminal states (every thread done, buffers drained). *)

val thread_enabled : discipline -> State.t -> int -> label list
(** [thread_enabled d st k]: the enabled labels of thread [k] only: its
    next instruction (SC, TSO, PSO) or the ready instructions of its window
    in index order (WO), then, under TSO/PSO, its flushes (PSO: highest
    location first). A thread's enabledness depends only on its own context
    (program counter, window hazards, its buffers) — never on other threads
    or on shared memory — a fact the reduction's soundness argument relies
    on (DESIGN.md §8). *)

val step : discipline -> State.t -> label -> State.t
(** [step d st l]: the successor of [st] along [l], which must be enabled
    at [st] (a flush of an empty buffer raises [Invalid_argument]). Builds
    only that successor. *)

val transitions : discipline -> State.t -> (label * State.t) list
(** {!step} mapped over {!enabled}. *)

val conflicts : Instr.t array -> int -> int -> bool
(** [conflicts prog j i] (for [j < i]): must [j] execute before [i] under
    WO? Exposed for property tests. *)
