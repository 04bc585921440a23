(** Summary statistics and confidence intervals for Monte Carlo estimates.

    Every simulated number reported in EXPERIMENTS.md comes with an interval
    so the paper-vs-measured comparison is honest about sampling error. *)

type summary = {
  count : int;
  mean : float;
  variance : float;  (** unbiased sample variance (0 when count < 2) *)
  std_dev : float;
  min : float;
  max : float;
}

type t
(** A mutable accumulator (Welford's online algorithm: numerically stable,
    single pass). *)

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
val summary : t -> summary

type interval = { lo : float; hi : float }

val wilson_ci : successes:int -> trials:int -> z:float -> interval
(** [wilson_ci ~successes ~trials ~z] is the Wilson score interval for a
    Bernoulli proportion — well-behaved even when the proportion is near 0,
    which matters for rare-event probabilities like Pr[B_gamma] at large
    gamma. Requires [trials > 0] and [0 <= successes <= trials]. *)

val proportion : successes:int -> trials:int -> float * interval
(** The summary every Bernoulli estimator reports: the plain proportion
    and the 95% Wilson interval. A run that completed no trials gets a [nan]
    point inside the vacuous interval [[0, 1]]. *)

type histogram = { bins : (int * int) list; total : int }
(** Sparse integer histogram: [(value, count)] sorted by value. *)

val histogram : int list -> histogram

val empirical_pmf : histogram -> (int * float) list
(** Normalized histogram. *)

