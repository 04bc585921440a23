(** A set of byte strings stored in an append-only arena: the in-RAM
    enumerator's visited set, and the external-memory enumerator's
    per-level successor set.

    Keys live back to back in byte chunks (4 KiB, doubling up to 1 MiB)
    that are allocated as needed and never moved or copied again; an
    open-addressing (linear-probing) index of packed int slots points into
    them. Each slot packs a 10-bit hash tag, the key length (longer keys
    keep theirs as a prefix in the arena), and the key's chunk and offset,
    so a probe compares key bytes only on a tag-and-length match. Lookups
    take the key straight from a caller's scratch [Bytes]; {!add} copies it
    only when it is new. Compared with a [(string, unit) Hashtbl.t] this
    allocates no heap block per key.

    A set may also keep a small value of a few bytes beside each key,
    which a repeated add ANDs into: the external-memory enumerator's
    successors carry their sleep sets that way.

    A set is owned by one caller: it is not safe to share between domains. *)

type t

val create : ?hash:(Bytes.t -> int -> int -> int) -> ?value_bytes:int -> unit -> t
(** An empty set. [hash b off len] (default a word-at-a-time
    multiplicative hash) must return a non-negative int that depends only
    on the [len] bytes at [off]; tests pass a degenerate one to force
    collisions. [value_bytes] (default 0, at most 8) is the size of the
    value stored beside each key. *)

val add : t -> Bytes.t -> int -> bool
(** [add t b len] adds the key [Bytes.sub b 0 len]; [true] iff it was not
    already present. It is [add_value t b len 0]. *)

val add_value : t -> Bytes.t -> int -> int -> bool
(** [add_value t b len v] adds the key with the value [v] (its low
    [value_bytes] bytes); [true] iff the key was not already present. When
    it was, its value becomes the bitwise AND of the stored one and [v]:
    after any sequence of adds a key's value is the AND of every value it
    was added with. *)

val length : t -> int
(** Number of distinct keys. *)

val footprint : t -> int
(** Bytes the set holds: its arena chunks (keys and values) plus 8 per
    index slot. *)

val iter : t -> (Bytes.t -> int -> int -> int -> unit) -> unit
(** [iter t f] calls [f b off len v] once per key, in increasing key order
    ([String.compare]'s order on the key bytes); the key is the [len]
    bytes of [b] at [off], and [v] its value (0 when [value_bytes] is
    0). [b] is the arena's own storage: read it inside
    [f], never write it or keep it. [f] must not add to [t]. The keys
    are sorted in place in two [int array]s of one word per key. *)

val clear : t -> unit
(** Remove every key and release all but the first chunk: afterwards the
    set is as small as a fresh one, and reusable. *)
