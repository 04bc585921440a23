(** Rigorous enclosures of the TSO series (verified numerics).

    The float evaluations in {!Analytic} are accurate but carry unquantified
    rounding and truncation error. This module recomputes the same series
    with exact rational partial sums and {e provable} truncation bounds —
    every dropped tail is bounded by leftover probability mass, which is
    itself an exact rational because the underlying laws (the
    negative-binomial Psi_mu, the L_mu partition, the window law B) each
    sum to exactly 1. The result is a mathematically sound interval around
    the true series value, with no floating point anywhere on the sound
    path.

    What this verifies: the m -> infinity value of the paper's Step 1–4
    decomposition (whose agreement with the assumption-free finite-m DP is
    established separately, to 8+ digits, in the test suite). In
    particular, the Theorem 6.2 TSO claim 58/441 < Pr[A] < 58/441 + 1/189
    becomes a machine-checked strict inclusion. *)

module Q = Memrel_prob.Rational

type enclosure = { lo : Q.t; hi : Q.t }
(** Exact rational bounds with [lo <= hi]; the true value lies inside. *)

val width : enclosure -> Q.t

val l_mu : ?q_max:int -> int -> enclosure
(** Enclosure of Pr[L_mu] (exact 1/3 at mu = 0). [q_max] (default 60)
    truncates the Psi series; the dropped mass is added to [hi]. *)

val b_tso : ?q_max:int -> ?mu_max:int -> int -> enclosure
(** Enclosure of the TSO Pr[B_gamma]. *)

val pr_a_tso_n2 : ?q_max:int -> ?mu_max:int -> ?gamma_max:int -> unit -> enclosure
(** Enclosure of the two-thread non-manifestation probability under TSO.
    With the defaults the width is far below the gap to the paper's bounds,
    so [strict inclusion in (58/441, 58/441 + 1/189)] is decidable by exact
    rational comparisons; test_verified.ml's Theorem 6.2 test checks it at
    smaller bounds, which already suffice. *)
