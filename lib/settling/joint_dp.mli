(** Exact joint window transforms for correlated threads.

    Theorem 6.1 reduces Pr[A] to E[prod_{i=1}^{n-1} 2^(-i Gamma_i)] under
    the TRUE joint law of the window lengths: the n threads share one random
    initial program and settle independently given it, which correlates the
    Gamma_i for store-order models. The paper bounds this for TSO and only
    at n = 2 (where a single factor makes the marginal sufficient); this
    module computes it exactly for every n up to a tensor-size limit.

    Key observation: under TSO/PSO dynamics the whole settling history of a
    thread matters for its window only through one integer — the number B of
    STs sitting contiguously at the program's bottom below the lowest
    settled LD. B evolves as a Markov chain driven by the program draw
    (a fresh ST increments B; a fresh LD climbs k STs with probability
    s^k (1-s), truncating B to B - k, or clears all B of them with
    probability s^B). Running n - 1 replica chains coupled through the
    shared program draws gives the exact joint law of (B_1, .., B_{n-1}),
    hence of the windows, in O(m K Bmax^K) — no 2^m enumeration.

    The chains are {!Joint_dp_q.Make}'s, instantiated at floats; this
    module adds the [Model.t] entry points and WO. SC windows are
    deterministic, and WO windows are independent of the program content,
    so the joint factorizes into a product of series. *)

val max_replicas : int
(** Largest supported [n - 1] (4, i.e. n = 5: the tensor is [Bmax^4]). *)

val expect_product :
  ?p:float -> ?b_max:int -> Memrel_memmodel.Model.t -> m:int -> n:int -> float
(** [expect_product model ~m ~n] is E[prod_{i=1}^{n-1} 2^(-i Gamma_i)]
    under the joint law, for a prefix of length [m] (use [m >= 48] for the
    paper's m -> infinity regime; truncation decays like s^m). [b_max]
    (default [min m 40]) caps the tracked bottom-run length; the clipped
    mass is below s^b_max. Requires [2 <= n <= max_replicas + 1]; [Custom]
    models are rejected. *)

val bottom_run_pmf : ?p:float -> ?b_max:int -> Memrel_memmodel.Model.t -> m:int -> float array
(** The marginal steady-state pmf of B after [m] prefix instructions —
    Pr[L_mu] at finite m, computed without the 2^m state space of
    {!Exact_dp}. Index mu holds Pr[B = mu]. *)
