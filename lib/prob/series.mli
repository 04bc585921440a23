(** Evaluation of the paper's truncated infinite sums.

    Sections 4–6 are full of sums over [q], [mu], [gamma] running to
    infinity whose terms decay geometrically. This module evaluates them in
    float with compensated (Kahan) summation and an explicit stopping rule,
    and reports the last term it kept. *)

type result = {
  value : float;  (** the truncated sum *)
  terms : int;  (** number of terms actually evaluated *)
  last_term : float;  (** magnitude of the final included term *)
}

val sum_to_convergence : ?eps:float -> ?max_terms:int -> (int -> float) -> result
(** [sum_to_convergence f] computes [sum_{k>=0} f k], stopping once
    [consecutive] terms fall below [eps] in magnitude (default
    [eps = 1e-16], [max_terms = 100_000]). Terms are assumed to decay
    (geometric-like tails), which holds for every series in the paper. *)

val sum_range : (int -> float) -> int -> int -> float
(** [sum_range f lo hi] is the compensated sum of [f lo .. f hi]. *)

