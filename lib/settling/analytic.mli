(** Closed-form and series results about the critical window (Section 4).

    Implements Theorem 4.1 (critical-window growth per model), Claim 4.3
    (the steady-state probability that the bottom instruction is a ST),
    Claim 4.4 and Lemma 4.2 (the Pr[L_mu] machinery), and — beyond the
    paper's bounds — an "exact series" TSO distribution that evaluates the
    paper's own decomposition with the exact arrangement-weighted sums
    instead of the phi >= 1 lower bound.

    Everything here is for the paper's normal form p = s = 1/2 and the
    m -> infinity limit; finite-m and general-parameter behaviour is covered
    by {!Exact_dp} and {!Mc}. *)

module Q = Memrel_prob.Rational

(** {1 Theorem 4.1 — Pr[B_gamma]} *)

val b_sc : int -> Q.t
(** Sequential consistency: 1 at gamma = 0, else 0. *)

val b_wo : int -> Q.t
(** Weak ordering: 2/3 at 0, [2^-gamma / 3] for gamma > 0. *)

val b_tso_lower : int -> Q.t
(** TSO lower bound: 2/3 at 0, [(6/7) 4^-gamma] for gamma > 0. *)

val b_tso_upper : int -> Q.t
(** TSO upper bound: adds the worst-case remainder [(2/21) 2^-gamma]. *)

val b_tso_series : ?q_max:int -> ?mu_max:int -> int -> float
(** [b_tso_series gamma] evaluates the paper's decomposition
    Pr[B_gamma] = sum_mu Pr[B_gamma | L_mu] Pr[L_mu] with the exact
    E[2^-Delta] (complete homogeneous symmetric sums) in place of the
    paper's partition-number lower bound. Lies within
    [[b_tso_lower, b_tso_upper]] for every gamma (tested). *)

(** {1 Claim 4.3 — Pr[S_ST,i(i)]} *)

val st_bottom_prob : int -> Q.t
(** [st_bottom_prob i] is the exact recurrence solution
    [2/3 + (1/4)^(i-1) (1/2 - 2/3)] for [i >= 1]: the probability that
    after round [i] the instruction at the bottom is a ST under TSO. *)

val st_bottom_limit : Q.t
(** 2/3. *)

(** {1 Lemma 4.2 — Pr[L_mu]} *)

val l0 : Q.t
(** Pr[L_0] = 1/3 exactly. *)

val h : int -> Q.t
(** [h mu = 8/7 - 1/(1 - 2^-(mu+1)) + (2/3)/(1 - 2^-(mu+2))], the
    parenthesized expression of the Lemma 4.2 proof; increasing in [mu]
    with [h 1 = 4/7]. *)

val l_mu_lower : int -> Q.t
(** [l_mu_lower mu = 2^-mu * h mu] for [mu >= 1] — the paper's per-mu lower
    bound (hence >= (4/7) 2^-mu). Kept for tests, which pin Lemma 4.2. *)

val remainder_mass : Q.t
(** R = 2/21: total probability the lower bounds leave unattributed
    (Claim B.1). Kept for tests, which pin Claim B.1. *)

val l_mu_series : ?q_max:int -> int -> float
(** Exact-series value of Pr[L_mu] ([l0] for mu = 0). *)

val psi_pmf : mu:int -> q:int -> Q.t
(** Pr[Psi_mu = q] = [2^-mu 2^-q C(mu+q-1, q)] (Step 2). *)

val f_mu_given_q : mu:int -> q:int -> float
(** Exact Pr[F_mu | Psi_mu = q] = E[2^-Delta]: the arrangement-averaged
    probability that all [q] interspersed LDs clear the [mu]-ST region. *)

val f_mu_given_q_lower : mu:int -> q:int -> Q.t
(** Claim 4.4's bound [(2^-(q-1) - 2^-(mu q)) / C(mu+q-1, q)]. Kept for
    tests, which pin Claim 4.4 against the exact F_mu|q. *)

(** {1 Window pmf and transforms (consumed by the joined model)} *)

type model_window =
  [ `SC  (** exact *)
  | `WO  (** exact *)
  | `TSO_lower  (** Theorem 4.1 lower bound *)
  | `TSO_upper  (** Theorem 4.1 upper bound *)
  | `TSO_series  (** exact-series evaluation *) ]

val window_pmf : model_window -> gamma_max:int -> (int * float) list
(** [window_pmf w ~gamma_max] is [(gamma, Pr[B_gamma])] for
    [gamma = 0 .. gamma_max]. Note the TSO bound variants are sub-/super-
    normalized by design. *)

val expect_pow2_window : model_window -> k:int -> float
(** E[2^(-k Gamma)] where Gamma = gamma + 2 is the full window length —
    the transform Theorems 6.1/6.2 consume. Requires [k >= 1]. *)

val expect_pow2_window_exact : [ `SC | `WO | `TSO_lower | `TSO_upper ] -> k:int -> Q.t
(** Exact rational transform where a closed form exists:
    - SC: [2^-2k];
    - WO: [2^-2k (2/3 + 1/(3 (2^(k+1) - 1)))];
    - TSO bounds: [2^-2k (2/3 + (6/7)/(2^(k+2) - 1) (+ (2/21)/(2^(k+1)-1)))]. *)
