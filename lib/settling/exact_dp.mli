(** Exact finite-m window distribution by dynamic programming.

    The paper analyzes the m -> infinity limit; this module computes the
    *exact* distribution of the critical-window growth for a finite prefix
    length [m] by propagating a probability distribution over settled
    type-sequences (the settling dynamics depend only on the LD/ST pattern,
    so the state space is the 2^len sequences). It provides ground truth
    that the closed forms of {!Analytic} must approach as [m] grows, and an
    independent check on the Monte Carlo sampler.

    The transitions are {!Window_walk}'s, shared with the rational
    {!Exact_dp_q}; this module supplies the float multiply-add. Works for
    any fence-free model and any [p]; cost is O(2^m m^2), so [m] is capped
    at 18. Joint functionals across threads live in {!Joint_dp}. *)

val max_m : int
(** Largest accepted prefix length (18). *)

val gamma_pmf : ?p:float -> Memrel_memmodel.Model.t -> m:int -> (int * float) list
(** [gamma_pmf model ~m] is the exact pmf of gamma — [(gamma, prob)] for
    [gamma = 0 .. m] — for a random program with [Pr[ST] = p]
    (default 1/2). Probabilities sum to 1 up to float rounding.
    Raises [Invalid_argument] if [m < 0] or [m > max_m]. *)

val bottom_st_probability : ?p:float -> Memrel_memmodel.Model.t -> m:int -> float
(** [bottom_st_probability model ~m] is the exact probability that, after
    settling the [m]-instruction prefix, the bottom instruction is a ST —
    the finite-m quantity whose TSO limit Claim 4.3 pins at 2/3. *)

val expect_pow2_window : ?p:float -> Memrel_memmodel.Model.t -> m:int -> k:int -> float
(** Exact finite-m transform E[2^(-k (gamma+2))] (cf.
    {!Analytic.expect_pow2_window}). *)
