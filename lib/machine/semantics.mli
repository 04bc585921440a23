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

(** {2 Label codes}

    Per state space each label has a code, thread by thread: thread [k]'s
    exec of instruction [i] is [first_code c k + i], then under TSO/PSO
    its flush of each location of the layout, highest first. Codes ascend
    in listing order. A bitset of codes is an [int array]: code [b] is
    bit [b mod word_bits] of word [b / word_bits]. *)

type codes

val word_bits : int
val codes : discipline -> State.t -> codes
(** The codes of [st]'s state space under [d], with each thread's drain
    mask (RMW, Full and Release fences under TSO/PSO) and, under WO, each
    instruction's {!conflicts} mask, computed once. *)

val code_count : codes -> int
val label : codes -> int -> label
val first_code : codes -> int -> int
val bitset : codes -> int array
(** An empty set of the codes. *)

val is_set : int array -> int -> bool
val clear_range : int array -> int -> int -> unit
(** [clear_range bits lo hi] clears codes [lo] to [hi - 1]. *)

val count : int array -> int

val bit_index : int array
(** [bit_index.(b mod 67)] is the index of [b], a word with one bit set. *)

val thread_bits : codes -> int array -> State.t -> int -> unit
(** [thread_bits c bits st k] sets thread [k]'s codes in [bits] to its
    enabled labels at [st]: the one place the readiness rules are written.
    A successor's bitset is its parent's with the moved thread's redone. *)

val state_bits : codes -> int array -> State.t -> unit
(** [bits] set to every thread's enabled codes at [st]. *)

val labels : codes -> int array -> label list
(** The labels of the codes set in [bits], in code order. *)

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
    on (DESIGN.md §8). Kept for the plain-DFS oracle in test/oracle. *)

val step : discipline -> State.t -> label -> State.t
(** [step d st l]: the successor of [st] along [l], which must be enabled
    at [st] (a flush of an empty buffer raises [Invalid_argument]). Builds
    only that successor. *)

val transitions : discipline -> State.t -> (label * State.t) list
(** {!step} mapped over {!enabled}. *)

val conflicts : Instr.t array -> int -> int -> bool
(** [conflicts prog j i] (for [j < i]): must [j] execute before [i] under
    WO? Exposed for property tests. *)
