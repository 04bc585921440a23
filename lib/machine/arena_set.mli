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

    A set is owned by one caller: it is not safe to share between domains. *)

type t

val create : ?hash:(Bytes.t -> int -> int -> int) -> unit -> t
(** An empty set. [hash b off len] (default a word-at-a-time
    multiplicative hash) must return a non-negative int that depends only
    on the [len] bytes at [off]; tests pass a degenerate one to force
    collisions. *)

val add : t -> Bytes.t -> int -> bool
(** [add t b len] adds the key [Bytes.sub b 0 len]; [true] iff it was not
    already present. *)

val length : t -> int
(** Number of distinct keys. *)

val footprint : t -> int
(** Bytes the set holds: its arena chunks plus 8 per index slot. *)

val iter : t -> (Bytes.t -> int -> int -> unit) -> unit
(** [iter t f] calls [f b off len] once per key, in increasing key order
    ([String.compare]'s order on the key bytes); the key is the [len]
    bytes of [b] at [off]. [b] is the arena's own storage: read it inside
    [f], never write it or keep it. [f] must not add to [t]. The keys
    are sorted in place in one [int array] of one word per key. *)

val clear : t -> unit
(** Remove every key and release all but the first chunk: afterwards the
    set is as small as a fresh one, and reusable. *)
