(** Sharded, disk-backed result cache.

    Keys are the engine's canonical query strings (built from
    {!Memrel_machine.Litmus.hash}, never test names); values are
    {!Protocol.encode_result} bytes. Entries live in per-shard in-memory
    hash tables and persist as CRC-verified {!Memrel_prob.Snapshot}
    containers under [dir/shard_XX/], so a cache survives a daemon
    restart. A shard's mutex is held across the whole probe-or-compute, so
    two domains racing the same key compute it exactly once while distinct
    keys on different shards proceed in parallel. A corrupted or truncated
    disk entry is counted ([disk_errors]), recomputed, and overwritten in
    place ([repairs]) — never served and never fatal. *)

type t

type origin = Protocol.origin = Computed | Memory_hit | Disk_hit

val create : ?shards:int -> dir:string -> unit -> t
(** [create ~dir ()] opens (creating as needed) a cache rooted at [dir]
    with [shards] (default 16, max 256) independent lock domains. An
    existing directory's entries become reachable immediately — disk is
    the restart-surviving tier; memory fills lazily on access. *)

val find_or_compute :
  t ->
  key:string ->
  compute:(unit -> (string * bool, 'e) result) ->
  (string * origin, 'e) result
(** [find_or_compute t ~key ~compute] returns the cached bytes for [key],
    probing memory then disk (a disk hit is promoted to memory). On a miss
    [compute ()] runs under the shard lock; [Ok (bytes, cacheable)] stores
    [bytes] (both tiers) only when [cacheable] — budget-partial results
    must pass [false] so a retry with a larger budget recomputes. A
    [compute] error is returned verbatim and nothing is stored. *)

val clear_memory : t -> unit
(** Drop the in-memory tier. Kept for tests, which force disk hits with it. *)

val stats : t -> Protocol.cache_stats
