(** Large-n asymptotics of the disjointness probability (Theorem 6.3).

    Pr[A] decays like 2^(-n^2 (3/2 + o(1))) in every model, so beyond small
    [n] everything is computed as base-2 logarithms. The model-specific
    window transforms are injected by the caller (they live in
    [Memrel_settling]); this module owns the shift-side algebra. *)

val log2_c : int -> float
(** log2 of Corollary 5.2's c(n) (converges to ~1.792 as n grows). Kept
    for tests, which pin Corollary 5.2's c(n). *)

val log2_factorial : int -> float

val log2_disjoint_symmetric : log2_expect:(int -> float) -> n:int -> float
(** [log2_disjoint_symmetric ~log2_expect ~n] is
    [log2 c(n) - C(n+1,2) + log2 n! + sum_{i=1}^{n-1} log2_expect i]
    — the Theorem 6.1 formula in log space, where [log2_expect i] is
    log2 E[2^(-i Gamma)] for the model's window-length law (independent
    identically-distributed lengths assumed). *)

val log2_pr_sc : int -> float
(** Exact log2 Pr[A] under Sequential Consistency (Gamma = 2 always):
    [log2 c(n) - C(n+1,2) + log2 n! - 2 C(n,2)]. *)

val log2_pr_floor_any_model : int -> float
(** Theorem 6.3's universal lower bound: Claim B.2 gives Pr[B_0] >= 1/2 in
    every model, hence
    [Pr[A] >= c(n) 2^-C(n+1,2) n! 2^(-2 C(n,2) - (n-1))]. Kept for tests,
    which pin Theorem 6.3's floor below the SC value. *)

val normalized_exponent : log2_pr:float -> n:int -> float
(** [-log2 Pr / n^2], the quantity Theorem 6.3 sends to 3/2. *)
