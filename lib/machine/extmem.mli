(** External-memory exhaustive enumeration: level-synchronized BFS that
    deduplicates each level on its own, in a budgeted in-RAM arena that
    spills to disk when it fills.

    The in-RAM engine ({!Enumerate.outcomes}) holds every packed state key
    in one set, so the largest enumerable state space is bounded by the
    heap. This engine holds one level at a time. The current level streams
    from delta-encoded sorted runs of packed keys (written through the
    {!Memrel_prob.Snapshot} container: tmp+rename atomic, CRC-32 framed);
    each state is decoded, expanded, and its successors' keys are
    deduplicated in an {!Arena_set}.
    A run entry is the key's shared-prefix length with the previous key,
    its suffix length, the suffix bytes and the key's sleep set (in
    {!Enumerate.renumber}'s numbering), each length and the sleep set a
    uvarint. When the arena's footprint passes
    [mem_budget_bytes] its keys are sorted and written as an overflow run
    and the arena is cleared; at the end of the level the overflow runs
    and the arena's remainder are merged k-way into the next level's
    unique keys. RAM use is governed by [mem_budget_bytes]; disk use is
    proportional to the widest level (roughly [bytes-per-packed-key ×
    states] of that level, before delta compression), not to the whole
    state space.

    {b Exactness.} Every transition executes one instruction or drains one
    buffered store, so a state's BFS level is its depth
    ({!State.decoded_depth}): levels partition the state space, and a
    state can only duplicate a state of its own level. The engine checks
    this lemma on every state it expands.
    Both engines take a state's transitions from its enabled codes
    ({!Semantics.state_bits}, narrowed by {!Enumerate.select}), whose
    ample-set POR choice is a deterministic function of the state alone,
    so the two traversals explore the exact same reduced graph.
    Both skip sleeping transitions by one rule ({!Enumerate.iter_awake}).
    Here a key's sleep set is the AND over every edge that admitted it:
    the arena ANDs a duplicate's into the stored one, and the k-way merge
    ANDs those of equal keys across overflow runs. That admits every
    reachable state (DESIGN.md §8), so on complete runs every result
    field ([outcomes], per-outcome terminal counts, [states_visited],
    [terminals], [stats.transitions], [stats.dedup_hits]) is identical
    to the in-RAM engine's; a sleeping transition counts as a transition
    and a dedup hit, and is never built.

    {b Crash safety.} After every completed level the engine atomically
    replaces a manifest checkpoint (counters, the new level's run files,
    outcome table), and only then deletes the previous level's runs. A
    killed run restarted with [~resume:true] resumes from the last
    complete level and replays deterministically — the final result is
    bit-identical to an uninterrupted run. Corrupt, truncated or foreign
    spill state, including a spill directory written by an earlier
    manifest version, is rejected with {!Spill_error}, never silently
    decoded. See DESIGN.md §15. *)

exception Spill_error of string
(** Typed failure for everything disk-shaped: unreadable/corrupt run files
    or manifests, a resume-key mismatch, or an inconsistent spill
    directory. The payload is a one-line human-readable message. *)

type ext_stats = {
  levels : int;  (** BFS levels expanded *)
  spill_runs : int;
      (** run files written: frontiers, overflow runs and merge
          intermediates *)
  spill_bytes : int;  (** total payload bytes written to spill runs *)
  spill_generations : int;
      (** overflow runs: arena flushes forced by the memory budget
          mid-level — 0 when every level's successors fit in RAM *)
  merges : int;
      (** k-way merge passes over overflow runs; every level that
          overflowed ends in at least one *)
  bloom_probes : int;
  bloom_hits : int;
  bloom_false_positives : int;
  compactions : int;
      (** always 0: the engine has no bloom filter and no visited-run
          compaction. Kept so the benchmark probe that reads them still
          builds. *)
  peak_level_states : int;  (** widest BFS level (states) *)
  resumed_at_level : int option;  (** [Some l] when this run resumed at level [l] *)
}

type 'a result = { base : 'a Enumerate.result; ext : ext_stats }
(** [base] carries the same fields as the in-RAM engine (on complete runs,
    the same {e values}); [base.stats.max_frontier] reports the peak BFS
    level width rather than a worklist size, and [base.stats.max_depth] the
    deepest expanded level. *)

val outcomes :
  ?max_states:int ->
  ?por:bool ->
  ?budget:Memrel_prob.Budget.t ->
  ?mem_budget_bytes:int ->
  ?resume:bool ->
  spill_dir:string ->
  resume_key:string ->
  Semantics.discipline ->
  State.t ->
  observe:(State.t -> 'a) ->
  'a result
(** [outcomes ~spill_dir ~resume_key d st ~observe] explores exhaustively,
    spilling to [spill_dir] (created if absent; a fresh run deletes any
    leftover spill state in it first).

    [resume_key] names the enumeration (e.g. test hash + discipline +
    por): it is stored in the manifest, and [~resume:true] refuses — with
    {!Spill_error} — to resume a directory written for a different key.

    [mem_budget_bytes] (default 64 MiB, at least 64 KiB) caps the
    successor arena's footprint; run files hold at most budget/16 bytes of
    payload each. [max_states] defaults to unlimited (the point of this engine
    is to exceed RAM-bounded caps); the cap, [budget] and [states_visited]
    count unique states expanded, exactly as in {!Enumerate.outcomes}. A
    tripped cap or budget yields a partial result through
    [base.exhausted]; a [Memory] watermark trip is re-checked once per
    level after a [Gc.full_major] so transient garbage cannot end a run
    the live heap would survive.

    On completion the spill directory still holds the manifest (a
    subsequent [~resume:true] call returns the final result without
    re-exploring); callers wanting the disk back use {!remove_spill_dir}. *)

val can_resume : string -> bool
(** Whether [dir] holds a manifest checkpoint — i.e. a prior run (complete
    or killed) that [~resume:true] would pick up. Existence only; the
    manifest is validated by the resume itself. *)

val remove_spill_dir : string -> unit
(** Delete the spill artifacts this engine writes (run files, manifest,
    leftover temporaries) and the directory itself if then empty. Never
    raises; foreign files are left in place. *)
