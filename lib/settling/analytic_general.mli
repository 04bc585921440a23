(** Window analysis for general parameters p (store density) and s (swap
    probability) — the generalization footnote 3 of the paper allows and
    Section 7 conjectures changes nothing qualitative.

    The paper fixes p = s = 1/2 "for ease of exposition" and notes that the
    key theorems survive with other constants, with different numerical
    values. This module derives those values:

    - Weak Ordering admits closed forms (the critical pair's motion is a
      pair of independent geometric(1-s) climbs, independent of p):
      Pr[B_0] = 1/(1+s) and Pr[B_gamma] = (1-s)^2 s^gamma / (1-s^2);
    - Claim 4.3 generalizes to the fixed point X = p / (1 - (1-p) s) of the
      recurrence X_i = p + (1-p) s X_(i-1);
    - the TSO series generalizes by replacing binomial(.)·2^-(mu+q) with the
      negative-binomial arrangement law and the homogeneous symmetric sums
      of powers of s.

    Everything here is cross-validated against {!Exact_dp} (which takes
    arbitrary (p, s) natively) in the test suite; at p = s = 1/2 these
    functions reproduce {!Analytic} exactly. *)

(** {1 Weak Ordering} *)

val b_wo : s:float -> int -> float
(** [b_wo ~s gamma] — closed form above; independent of [p]. *)

val b_wo_fenced : s:float -> d:int -> int -> float
(** [b_wo_fenced ~s ~d gamma]: Weak Ordering with a single acquire fence
    exactly [d] instructions above the critical load — the Section 7
    extension in closed form. The critical load's climb is capped at [d]
    (the fence blocks upward passes), the critical store chases as usual:

    - Pr[B_0] = (1-s)(1-s^2d)/(1-s^2) + s^2d,
    - Pr[B_g] = (1-s)^2 s^-g sum_(i=g..d-1) s^2i + (1-s) s^(2d-g)
      for 0 < g <= d, and 0 beyond [d].

    [d = 0] degenerates to SC's point mass; [d -> infinity] recovers
    {!b_wo} (both tested, and the finite-[d] law is validated against
    settling simulation of explicitly fenced programs). *)

(** {1 Claim 4.3, generalized} *)

val st_bottom_limit : p:float -> s:float -> float
(** Steady-state probability that the bottom settled instruction is a ST
    under TSO/PSO dynamics: [p / (1 - (1-p) s)]. *)

(** {1 TSO series, generalized} *)

val psi_pmf : p:float -> mu:int -> q:int -> float
(** [Pr[Psi_mu = q] = C(mu+q-1, q) p^mu (1-p)^q]. *)

val f_mu_given_q : s:float -> mu:int -> q:int -> float
(** E[s^Delta] over uniform arrangements — the probability that all [q]
    interspersed LDs clear the [mu]-ST region. *)

val l_mu : p:float -> s:float -> int -> float
(** Pr[L_mu] by the generalized series ([1 - st_bottom_limit] at mu = 0). *)

val b_tso : p:float -> s:float -> int -> float
(** Pr[B_gamma] under TSO with general parameters. *)

(** {1 Transforms and n = 2 manifestation} *)

val expect_pow2_window : b:(int -> float) -> k:int -> float
(** [expect_pow2_window ~b ~k] is [sum_gamma b gamma * 2^(-k (gamma+2))] for
    any window law [b] — the shift-side transform (the shift process itself
    is not parameterized by p or s). *)

val pr_a_n2 : b:(int -> float) -> float
(** [(2/3) E[2^-Gamma]]: Theorem 6.2's formula for any window law. *)
