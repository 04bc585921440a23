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

val of_samples : float list -> summary

type interval = { lo : float; hi : float }

val mean_ci : summary -> z:float -> interval
(** [mean_ci s ~z] is the normal-approximation CI [mean +- z * stderr].
    [z = 1.96] for 95%. *)

val wilson_ci : successes:int -> trials:int -> z:float -> interval
(** [wilson_ci ~successes ~trials ~z] is the Wilson score interval for a
    Bernoulli proportion — well-behaved even when the proportion is near 0,
    which matters for rare-event probabilities like Pr[B_gamma] at large
    gamma. Requires [trials > 0] and [0 <= successes <= trials]. *)

val binomial_point : successes:int -> trials:int -> float
(** Plain proportion estimate. *)

val proportion : successes:int -> trials:int -> float * interval
(** The summary every Bernoulli estimator reports: {!binomial_point} and
    the 95% Wilson interval. A run that completed no trials gets a [nan]
    point inside the vacuous interval [[0, 1]]. *)

type histogram = { bins : (int * int) list; total : int }
(** Sparse integer histogram: [(value, count)] sorted by value. *)

val histogram : int list -> histogram
val histogram_of_counts : (int, int) Hashtbl.t -> histogram

val empirical_pmf : histogram -> (int * float) list
(** Normalized histogram. *)

val total_variation : (int * float) list -> (int * float) list -> float
(** [total_variation p q] is the total-variation distance between two pmfs
    given as sparse [(value, prob)] lists: used to compare empirical window
    distributions against the analytic ones. *)

val chi_squared : observed:int array -> expected:float array -> float
(** [chi_squared ~observed ~expected] is the Pearson statistic
    [sum (o_i - e_i)^2 / e_i]. Cells with [expected <= 0] must have zero
    observations (else [Invalid_argument]); such cells contribute nothing.
    Degrees of freedom are the caller's business. *)

val chi_squared_threshold_99 : dof:int -> float
(** Conservative 99th-percentile critical values for small degrees of
    freedom (1..30, via the Wilson–Hilferty approximation beyond a small
    exact table): a goodness-of-fit test rejects at the 1% level when the
    statistic exceeds this. Used by the stochastic tests so their false
    positive rate is known. *)
