(** Discrete probability distributions: pmfs, cdfs and samplers.

    The paper's two primitive random sources are the fair coin (program
    generation and settling, p = s = 1/2) and the geometric shift
    Pr[k] = 2^-(k+1). This module gives both their exact pmfs and samplers,
    plus generic categorical sampling for workload generators. *)

val geometric_half_pmf : int -> float
(** [geometric_half_pmf k] is [2^-(k+1)] for [k >= 0], else 0. *)

val geometric_half_pmf_q : int -> Rational.t
(** Exact rational version. *)

val geometric_half_sf : int -> float
(** Survival [Pr[s >= k] = 2^-k] for [k >= 0] (1 for negative [k]). *)

val geometric_pmf : p:float -> int -> float
(** [geometric_pmf ~p k] is [(1-p)^k * p]. *)

val sample_geometric_half : Rng.t -> int

val sample_categorical : Rng.t -> float array -> int
(** [sample_categorical rng weights] draws index [i] with probability
    proportional to [weights.(i)]. Requires nonnegative weights with a
    positive sum. Linear scan, re-summing the weights on every draw — the
    reference implementation; build a {!categorical} table when drawing
    repeatedly from the same weights. *)

type categorical
(** Precomputed cumulative table for repeated categorical draws: build once
    per estimator call, then each draw is one uniform deviate plus a binary
    search (no per-draw summation, no allocation). *)

val categorical : float array -> categorical
(** [categorical weights] precomputes the cumulative table. Requires a
    nonempty array of nonnegative weights with positive sum (raises
    [Invalid_argument] otherwise). The table snapshots the weights; later
    mutation of the input array is not observed. *)

val sample_categorical_table : categorical -> Rng.t -> int
(** [sample_categorical_table c rng] draws from the precomputed table. The
    cumulative sums are accumulated in the same left-to-right order as
    {!sample_categorical}'s scan, so for the same generator state the two
    return {e identical} indices — checked in [test/prob/test_dist.ml]. *)

type 'a pmf = ('a * Rational.t) list
(** A finite exact pmf as a sparse association list. *)

val pmf_total : 'a pmf -> Rational.t
val pmf_normalize : 'a pmf -> 'a pmf
val pmf_expect : int pmf -> (int -> Rational.t) -> Rational.t
(** [pmf_expect pmf f] is [sum_v f v * Pr[v]]. *)

val pmf_merge : 'a pmf -> 'a pmf
(** Combine duplicate keys by summing their probabilities. *)
