(** {!Joint_dp}'s coupled bottom-run chains, written once over
    {!Memrel_prob.Sigs.SCALAR}: {!Joint_dp} is the float instance, and the
    toplevel values here are the {!Memrel_prob.Rational} one. Over
    rationals, the truncated joint window transform E[prod 2^(-i Gamma_i)]
    comes out as the exact dyadic rational it is for a prefix length [m]
    and bottom-run cap [b_max], with no rounding on top of the truncation.
    SC dispatches to its closed form; WO (an infinite series, which the
    float {!Joint_dp} sums) and Custom are rejected.

    This is also the heaviest exact-DP workload in the bench: the tensor
    has (b_max+1)^(n-1) rational entries updated m times. *)

module Q = Memrel_prob.Rational
module Model = Memrel_memmodel.Model

val max_replicas : int
(** Largest supported [n - 1] (4, as in {!Joint_dp}). *)

module type S = sig
  type q
  (** The scalar of this instance. *)

  val expect_product :
    ?p:q -> ?b_max:int -> s:q -> Model.family -> m:int -> n:int -> q
  (** [E[prod_{i=1}^{n-1} 2^(-i Gamma_i)]] for a prefix of length
      [m], with the bottom-run chains truncated at [b_max] (default
      [min m 40]). [p] (default 1/2) is the ST probability, [s] the swap
      probability; both must lie strictly inside (0,1). Requires
      [2 <= n <= max_replicas + 1]; only SC/TSO/PSO families. *)

  val bottom_run_pmf :
    ?p:q -> ?b_max:int -> s:q -> Model.family -> m:int -> q array
  (** The marginal pmf of the bottom-run length B after [m] prefix
      instructions (index mu holds Pr[B = mu]). TSO/PSO only. *)
end

module Make (Q : Memrel_prob.Sigs.SCALAR) : S with type q = Q.t

include S with type q = Q.t
