(** Machine state for the operational simulator.

    A state is the shared memory plus per-thread contexts (program,
    executed-instruction set, registers, and the store-buffer structures
    used by TSO/PSO). Memory, registers and the PSO buffers are dense
    arrays indexed by location or register number, sized once by {!init}
    from the locations and registers the programs name (plus the initially
    bound locations); every state of one state space shares that layout.

    States are immutable by convention: the arrays are copy-on-write and
    shared between states (and with the all-zero arrays of the layout), so
    a transition copies exactly the arrays it changes and never writes into
    an existing one. Build modified states with {!set_reg}, {!set_mem},
    {!set_thread} and {!set_perloc_queue}, never by mutating a field's
    array. A successor's [mem] array and each of its thread records are
    therefore physically equal ([==]) to its parent's wherever the
    transition left them alone; {!splice} relies on this.
    {!packed_key} is the canonical serialization the enumerators
    deduplicate on. *)

type thread = {
  prog : Instr.t array;
  executed : int;  (** bitmask over instruction indices *)
  regs : int array;
      (** register [r] at index [r]; registers past the array read 0 *)
  fifo : (int * int) list;  (** TSO store buffer: (loc, value), oldest first *)
  perloc : int list array;
      (** PSO buffers: location [l]'s FIFO (oldest first) at index [l] *)
}

type t = {
  mem : int array;  (** location [l] at index [l]; locations past the array read 0 *)
  threads : thread array;
}

val init : programs:Instr.t array list -> initial_mem:(int * int) list -> t
(** Fresh state: nothing executed, empty buffers, registers zero, memory
    zero except the given bindings. Programs are capped at 60 instructions
    (the executed bitmask lives in a native int). Location and register
    numbers must lie in [\[0, 65536)] (the arrays are dense); others raise
    [Invalid_argument]. *)

val reg : thread -> int -> int
val mem_read : t -> int -> int
(** Shared-memory value, ignoring store buffers (0 when never written). *)

val set_reg : thread -> int -> int -> thread
(** [set_reg th r v]: [th] with register [r] set to [v] (a copy; [th] is
    unchanged). [r] must be in the layout, as every register of the
    thread's program is. *)

val set_mem : t -> int -> int -> t
(** [set_mem st l v]: [st] with memory location [l] set to [v] (a copy). *)

val set_thread : t -> int -> thread -> t
(** [set_thread st k th]: [st] with thread [k] replaced by [th] (a copy). *)

val perloc_queue : thread -> int -> int list
(** The PSO buffer of one location, oldest first ([[]] when empty). *)

val set_perloc_queue : thread -> int -> int list -> thread
(** [th] with one location's PSO buffer replaced (a copy). *)

val is_executed : thread -> int -> bool
val next_unexecuted : thread -> int
(** Lowest unexecuted instruction index ([Array.length prog] when done). *)

val perloc_empty : thread -> bool
(** Every PSO buffer of the thread is empty. *)

val thread_done : thread -> bool
(** All instructions executed and both buffers drained. *)

val all_done : t -> bool

val buffered_read_fifo : thread -> int -> int option
(** Newest buffered value for a location in the TSO FIFO, if any. *)

val buffered_read_perloc : thread -> int -> int option
(** Newest buffered value for a location in the PSO buffers, if any. *)

(** {2 Packed keys} *)

type packer
(** A reusable scratch buffer for packing keys. Owned by one caller (one
    enumeration); never share one between domains. *)

val packer : unit -> packer

val pack : packer -> t -> unit
(** Overwrite the packer's contents with the state's {!packed_key} bytes,
    and its {!packed_ends} with the key's section ends. Writes with plain
    loops into the packer's own [Bytes]: no allocation once the scratch
    has grown to the key size. *)

val packed_bytes : packer -> Bytes.t
(** The scratch bytes; the key is the first {!packed_length} of them, valid
    until the next {!pack} or {!splice}. *)

val packed_length : packer -> int
val packed_string : packer -> string
(** A copy of the current key. *)

val packed_ends : packer -> int array
(** The current key's section ends, recorded as it was written (one int
    store per section): index [0] is the end of memory, index [k + 1] the
    end of thread [k], so the last is the key's length. The array has one
    entry per thread plus one, is owned by the packer and is overwritten
    by the next {!pack} or {!splice}: copy it to keep it. *)

val packed_key : t -> string
(** Canonical compact serialization: zigzag-varint byte string with
    count-prefixed sections, no [Printf] on the path. Two states have equal
    packed keys iff they are semantically equal (same executed sets,
    registers, buffers and memory, with zero-valued bindings normalized
    away) — the enumerators' deduplication key. The format is stable:
    memory bindings (count, then location/value pairs in location order),
    then per thread its executed mask, register bindings, TSO FIFO (count,
    then pairs oldest first) and PSO buffers (count, then per non-empty
    location: location, length, values oldest first). *)

val add_packed : Buffer.t -> t -> unit
(** Append the {!packed_key} encoding to a caller-owned buffer. *)

type decoder
(** A cursor for rebuilding states from their packed keys, with the
    layout of one state space (programs and array lengths) computed once.
    It is mutable (it remembers the key it last decoded): use one per
    engine and never share one between domains. *)

val decoder : ?buffered:bool -> t -> decoder
(** A decoder for keys of states that share [st]'s programs, in the layout
    of [st] (typically the root of the state space). [buffered] (default
    [false]) says whether stores go through a store buffer (TSO, PSO) or
    act on memory directly (SC, WO); it only affects {!decoded_depth}. *)

val decode : ?shared:int -> decoder -> Bytes.t -> int -> t
(** [decode d b len] decodes the {!packed_key} held in the first [len]
    bytes of [b]. Thread count and order must match the encoder's.
    [shared] (default 0) says that the first [shared] bytes of [b] are
    those of the key [d] last decoded: every section (memory, or a whole
    thread) that ended inside them is taken from the state decoded then,
    physically, with its depth, and reading resumes at the first section
    that crosses [shared]. The result, {!decoded_depth} and the recorded
    section ends are a full decode's. After a failed decode, or before
    any, [shared] is ignored.
    Decoding is strict: it accepts exactly the byte strings {!pack}
    writes, so [packed_key (decode d k) = k] for every key it accepts,
    and the decoded state is semantically identical to the packed one
    (same transitions, observations and key). This is what lets the
    external-memory enumerator keep only keys on disk and rebuild states
    to expand them. A key binding a location or register past the
    decoder's layout still decodes (the layout widens to cover it).
    Raises [Invalid_argument] on truncated, overlong (a varint with a
    zero last group, or past 9 bytes) or trailing bytes, on a zero-valued
    binding, on indices that do not increase, on an empty PSO buffer
    entry and on an executed mask past the program: malformed input is
    never decoded into a plausible-but-wrong state. *)

val decoded_depth : decoder -> int
(** The depth of the state {!decode} last returned, summed while it read
    the key: instructions executed plus, when [buffered], buffered stores
    drained (executed stores minus the entries still queued), over all
    threads. Depth lemma: every transition executes one instruction or
    drains one buffered store, so each successor of a state is one deeper
    and the root has depth 0. A state's BFS level is therefore a function
    of the state, and BFS levels partition the state space (DESIGN.md
    §8). *)

val splice : packer -> parent:t -> Bytes.t -> int array -> t -> unit
(** [splice p ~parent key ends st] is [pack p st] (the same bytes and the
    same {!packed_ends}), faster when [st] is a successor of [parent]:
    the sections [st] shares with [parent] physically (memory, or a whole
    thread record) are copied from [key], adjacent ones in a single blit,
    and only the others are encoded. [key] must hold [parent]'s
    {!packed_key} from offset 0 and [ends] its section ends, as
    {!packed_ends} gave them; the spliced key's own ends are recorded as
    it is written. A state with another thread count than [parent] is
    packed from scratch. *)

val pack_successor : decoder -> packer -> t -> unit
(** [pack_successor d p st] is {!splice} from the state [d] last decoded,
    with the key bytes given to that {!decode} (which must be unchanged
    since) and the section ends the decoder recorded while reading them.
    After a failed decode, or before any, it is [pack p st]. *)

val of_packed_key : programs:Instr.t array list -> string -> t
(** {!decode} of a whole string, with a layout derived from [programs]
    alone; the programs are not part of the key (they never change over a
    state space), so the caller supplies the same list it gave {!init}.
    Derives the layout on every call: decode many keys through one
    {!decoder} instead. *)

val pp : Format.formatter -> t -> unit
(** Non-zero memory cells and registers, and TSO buffers, per thread. *)
