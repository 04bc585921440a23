(** Deterministic multicore Monte Carlo engine (OCaml 5 [Domain] fan-out).

    Every estimator in memrel is a loop of independent trials folded into an
    accumulator. {!run} is the one scheduler for all of them: it runs such
    loops across domains while keeping the results {e bit-identical
    regardless of how many domains run} — the determinism that makes the
    rest of the test suite (and every number in EXPERIMENTS.md)
    reproducible from a seed is preserved on multicore.

    The scheme:

    - The trials are cut into fixed-size chunks. The schedule is keyed by
      the chunk index only: chunk [i] always processes the same trials with
      the same generator, no matter which domain executes it or in what
      order.
    - One [Rng.bits64] draw from the caller's generator yields a base
      entropy word; chunk [i] then runs on [Rng.substream base i], a pure
      function of [(base, i)]. No generator state is shared across domains.
    - Domains claim chunks dynamically. Completed chunks merge into the
      result as a left fold over the {e schedule-order prefix}: chunk [k]
      merges only once chunks [0..k-1] have, so even merges that are only
      associative up to rounding (float sums) reproduce exactly.

    Consequently [run ~jobs:1] and [run ~jobs:64] return equal results;
    [jobs:1] runs the same scheduler on the calling domain, spawning
    nothing. The contract is checked in [test/prob/test_par.ml].

    Everything else is an option of the same scheduler: a {!Budget} checked
    before every chunk claim, a stop predicate and a progress report
    evaluated on the merged prefix, checkpoint/resume through {!Snapshot},
    and a fault-injection hook for tests. A trial exception is retried: the
    chunk replays its substream on a freshly built worker, up to three
    attempts in all. *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count () - 1] (the caller's domain also
    works), at least 1. *)

val default_chunk : int
(** Trials per chunk (4096): fine enough to balance across many domains,
    coarse enough that per-chunk setup is noise. The chunk size is part of
    the schedule key — changing it changes which substream a trial draws
    from, hence the sampled values (never the distribution). *)

val default_checkpoint_every : int
(** Checkpoint after every 16 completed chunks (when [~checkpoint] is
    given); a final checkpoint is always written on return. *)

val resolve_jobs : int option -> int
(** [resolve_jobs None] is {!default_jobs}[ ()]; [resolve_jobs (Some j)] is
    [j]. An explicit [j <= 0] raises [Invalid_argument] — the engine never
    silently clamps a nonsensical jobs count. *)

type 'a outcome = {
  value : 'a;
      (** merged accumulator over the schedule-order prefix of completed
          chunks: all of them when the run finished, the prefix at the
          stopping point or at budget exhaustion otherwise ([init ()] when
          the prefix is empty) *)
  trials_done : int;  (** trials covered by [value] *)
  chunks_done : int;  (** chunks merged into [value], resumed ones included *)
  target_met : bool;  (** the stop predicate ended the run *)
  exhausted : Budget.exhaustion option;
      (** [Some _] iff the budget tripped before completion or stop *)
  chunks_total : int;  (** chunks in the full schedule *)
  chunks_resumed : int;  (** chunks loaded from the resume checkpoint *)
  retries : int;  (** chunk re-attempts after injected or trial failures *)
  worker_failures : int;  (** individual failure events observed *)
  checkpoints_written : int;
}

type fault = Crash | Wedge
    (** Injected worker failure modes (test-only): [Crash] raises inside the
        worker mid-chunk; [Wedge] simulates a worker dying silently — it
        stops taking work and its chunk is re-run after the join on the
        calling domain. *)

exception Injected_crash of { chunk : int; attempt : int }
(** The exception an injected [Crash] raises. *)

exception Retries_exhausted of { chunk : int; attempts : int; last_error : string }
(** A chunk failed on all of its three attempts. *)

exception Invalid_snapshot of string
(** Checkpoint file rejected: corrupted, truncated, wrong format version,
    wrong engine tag, written by a different estimator, or taken under
    different run parameters (seed/trials/chunk). The message says which,
    on one line. *)

val run :
  ?jobs:int ->
  ?chunk:int ->
  ?budget:Budget.t ->
  ?stop:(trials:int -> 'acc -> bool) ->
  ?report:(trials:int -> 'acc -> unit) ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:string ->
  ?identity:string ->
  ?fault:(chunk:int -> attempt:int -> fault option) ->
  trials:int ->
  init:(unit -> 'acc) ->
  worker:(unit -> 'acc -> Rng.t -> 'acc) ->
  merge:('acc -> 'acc -> 'acc) ->
  Rng.t ->
  'acc outcome
(** [run ~trials ~init ~worker ~merge rng] folds up to [trials] independent
    trials into an accumulator over [jobs] domains (default
    {!default_jobs}). [worker ()] runs once per domain and returns the
    per-trial function [accumulate acc r], which performs one trial drawing
    randomness from [r]; allocate reusable scratch in [worker ()], not per
    trial. [init] creates one accumulator per chunk (in-place mutation of
    it is fine — each accumulator is owned by one domain). [merge] combines
    two chunk accumulators; associativity up to the fixed fold order is
    enough. Laws: [merge (init ()) a = a] observationally, and [merge] must
    commute with [accumulate] over disjoint trial sets.

    - [stop ~trials acc] is checked each time the merged prefix grows; the
      run stops at the least chunk [k] for which it holds over chunks
      [0..k], so the stopping trial count is a pure function of (seed,
      chunk, predicate) and the same at every [jobs]. Chunks completed past
      that point are checkpointed but never merged.
    - [report] is called every 16 merged chunks (under the scheduler lock
      when [jobs > 1] — keep it fast, and don't re-enter the engine).
    - [budget] is checked before every chunk claim and charged one work
      unit per completed chunk. On exhaustion the result is the merged
      prefix, with [exhausted = Some _].
    - [checkpoint]: snapshot file, written atomically every
      [checkpoint_every] completed chunks and once on return. Every
      completed chunk is saved, merged or not.
    - [resume]: load a checkpoint and skip its chunks. The snapshot must
      carry the same [identity] (default [""]; estimators pass their name
      and every parameter of the trial function), seed, [trials] and
      [chunk]; anything else, or a damaged file, raises {!Invalid_snapshot}
      before any accumulator is decoded. Kill + resume reproduces the
      uninterrupted result bit-for-bit.
    - [fault]: test hook consulted before each chunk attempt. A crashed
      chunk (or one whose trial raised) is retried on a rebuilt worker;
      a wedged worker stops, and its chunk and the chunks it never claimed
      are re-run on the calling domain after the join. A chunk failing its
      third attempt raises {!Retries_exhausted}. Every attempt replays the
      same substream, so recovery is bit-identical too.

    An exception from the first [worker ()] call on a domain (argument
    checks) propagates unchanged. Advances the caller's [rng] by exactly
    one [bits64] draw regardless of [jobs], [chunk] and [trials]. Raises
    [Invalid_argument] on nonpositive [trials]/[chunk]/[checkpoint_every]
    or [jobs <= 0]. *)

val count :
  ?jobs:int ->
  ?chunk:int ->
  ?budget:Budget.t ->
  ?target_width:float ->
  ?report:(trials:int -> successes:int -> unit) ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:string ->
  ?identity:string ->
  ?fault:(chunk:int -> attempt:int -> fault option) ->
  trials:int ->
  worker:(unit -> Rng.t -> bool) ->
  Rng.t ->
  int outcome
(** The success counter of every Bernoulli estimator: {!run} counting the
    trials on which the per-worker predicate returned [true]. With
    [target_width] the run stops at the first chunk boundary where the 95%
    Wilson interval for the success probability has width
    [<= target_width]; otherwise it runs all [trials]. [target_met] tells
    which. Raises [Invalid_argument] on nonpositive [target_width]. *)

val map_list : ?jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map_list f l] is [List.map f l] with the elements evaluated across
    domains. [f] must be pure (it runs concurrently and in arbitrary
    order); the result order is the input order. Used for embarrassingly
    parallel analytic sweeps (e.g. scaling tables), not for Monte Carlo. *)
