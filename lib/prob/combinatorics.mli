(** Exact combinatorial quantities used throughout the paper's proofs.

    The TSO analysis (Section 4, Step 4) needs the bounded partition number
    phi(x, y, z) — the count the paper lower-bounds by 1; we compute it
    exactly so the "exact series" window distribution can be evaluated. The
    shift process (Theorem 5.1) needs sums over the symmetric group. *)

val binomial : int -> int -> Bigint.t
(** [binomial n k] is [C(n, k)]; zero when [k < 0] or [k > n].
    Requires [n >= 0]. Memoized for [n <= 512] (bounded triangle table);
    larger [n] computes directly. *)

val binomial_float : int -> int -> float
(** Float view of {!binomial} (for the float-domain series). *)

val factorial : int -> Bigint.t
(** [factorial n] for [n >= 0]. *)

val log2_factorial : int -> float
(** [log2_factorial n] is [log2 (n!)], computed by summation (exact enough
    for the Stirling-regime asymptotics of Theorem 6.3). *)

val partitions_bounded : int -> int -> int -> Bigint.t
(** [partitions_bounded x y z] is phi(x, y, z): the number of multisets of
    [y] positive integers, each at most [z], summing to [x]. This is the
    paper's phi — e.g. [partitions_bounded x y z] is at least 1 whenever
    [y <= x <= y * z] (the fact the paper's Claim 4.4 relies on). Memoized
    internally. *)

val permutations : int -> int array list
(** [permutations n] enumerates all permutations of [0 .. n-1]. Intended for
    the Theorem 5.1 sum, so [n] is expected to be small (the call raises
    [Invalid_argument] for [n > 9] to protect against accidental blowups). *)

val fold_permutations : ('a -> int array -> 'a) -> 'a -> int -> 'a
(** [fold_permutations f init n] folds [f] over all permutations of
    [0 .. n-1] without materializing the list. The array passed to [f] is
    reused between calls; copy it if you keep it. Same [n <= 9] guard. *)

(** {1 Cache observability}

    The binomial and partition memo tables are global and mutex-guarded
    (they are reachable from {!Par} worker domains), so these numbers are
    exact. *)

type cache_stats = {
  binomial_hits : int;
  binomial_misses : int;
  binomial_entries : int;
  partition_hits : int;
  partition_misses : int;
  partition_entries : int;
}

val cache_stats : unit -> cache_stats

val clear_caches : unit -> unit
(** Empties both memo tables and zeroes the hit/miss counters (used by the
    bench harness to measure cold-cache behaviour). *)
