(** The finite-m window distribution in exact rational arithmetic.

    The DP of {!Exact_dp}, over {!Memrel_prob.Rational}: both sit on
    {!Window_walk}'s transitions, and this module supplies the rational
    multiply-add. Finite-m statements become machine-checked identities —
    the total mass is *exactly* 1, and small-m window probabilities come out
    as the dyadic fractions they are (TSO at m = 1: Pr[B_0] = 3/4,
    Pr[B_1] = 1/4). Parameters are rational too, so the footnote-3
    generality is kept exactly. Rational arithmetic over 2^m states is
    costly, so [m] is capped lower than the float DP's. A functor over
    {!Memrel_prob.Sigs.RATIONAL}, so the bench harness can run it over the
    fast-path and the seed rationals; the toplevel values are the
    fast-path instance. *)

module Q = Memrel_prob.Rational

module type S = sig
  type q
  (** The rational scalar of this instance. *)

  type matrix = {
    st_st : q;
    st_ld : q;
    ld_st : q;
    ld_ld : q;
  }
  (** Swap probabilities rho(earlier, later), as in Table 1 / footnote 3.
      Entries must lie in [0, 1]. *)

  val sc : matrix
  val tso : ?s:q -> unit -> matrix
  val pso : ?s:q -> unit -> matrix
  val wo : ?s:q -> unit -> matrix
  (** Presets mirroring {!Memrel_memmodel.Model}; [s] defaults to 1/2. *)

  val of_model : Memrel_memmodel.Model.t -> matrix
  (** Exact dyadic lift of a float model (every float probability is a
      dyadic rational, so this is lossless). *)

  val max_m : int
  (** Largest accepted prefix length (12). *)

  val gamma_pmf : ?p:q -> matrix -> m:int -> (int * q) list
  (** [gamma_pmf matrix ~m] is the exact pmf of the window growth gamma.
      The returned masses sum to exactly 1 (tested as a rational
      identity). *)

  val bottom_st_probability : ?p:q -> matrix -> m:int -> q
  (** Exact finite-m Claim 4.3 quantity; under TSO with p = s = 1/2 it
      equals {!Analytic.st_bottom_prob} as a rational identity. *)
end

module Make (Q : Memrel_prob.Sigs.RATIONAL) : S with type q = Q.t

include S with type q = Q.t
