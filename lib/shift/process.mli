(** The shift process (Definition 1, Section 5) — sampling side.

    [n] integer-length segments start at the origin and are translated by
    i.i.d. geometric shifts with pmf [Pr[s = k] = 2^-(k+1)]. The event
    A(gamma-bar) is that the translated closed segments
    [[s_i, s_i + gamma_i]] are pairwise disjoint. Note the endpoint
    convention implied by Theorem 5.1's algebra (and verified in the tests):
    a segment of length gamma occupies the gamma + 1 integer slots
    [s .. s + gamma], and two segments touching at an endpoint DO overlap —
    the next segment must start at least [gamma + 1] above the previous
    start. *)

type sample = { shifts : int array; disjoint : bool }

val sample : Memrel_prob.Rng.t -> int array -> sample
(** [sample rng gammas] draws the shifts and evaluates disjointness.
    Segment lengths must be nonnegative. *)

val disjoint : shifts:int array -> gammas:int array -> bool
(** Pure disjointness check (exposed for tests and for the joined model):
    sorted by shift, every consecutive pair must satisfy
    [s_next >= s_prev + gamma_prev + 1]. Equal shifts always overlap. *)

val disjoint_scratch : shifts:int array -> idx:int array -> gammas:int array -> bool
(** {!disjoint} on caller-owned buffers — the zero-allocation form used by
    the streaming estimators (and the joined model's): [idx] is scratch of
    the same length as [gammas], overwritten on every call. Agrees with
    {!disjoint} on every input (ties between equal shifts cannot affect the
    verdict, so the sort order of ties is immaterial). *)

val estimate :
  ?jobs:int -> trials:int -> Memrel_prob.Rng.t -> int array ->
  float * Memrel_prob.Stats.interval
(** [estimate ~trials rng gammas] is the Monte Carlo estimate of
    Pr[A(gamma-bar)] with a 95% Wilson interval. Trials fan out over [jobs]
    domains via {!Memrel_prob.Par} (default
    {!Memrel_prob.Par.default_jobs}); bit-identical at every [jobs]. *)

val estimate_adaptive :
  ?jobs:int ->
  ?budget:Memrel_prob.Budget.t ->
  ?report:(trials:int -> successes:int -> unit) ->
  ?target_width:float ->
  ?checkpoint:string -> ?checkpoint_every:int -> ?resume:string ->
  max_trials:int ->
  Memrel_prob.Rng.t -> int array ->
  (float * Memrel_prob.Stats.interval) Memrel_prob.Par.outcome
(** {!estimate} with every option of {!Memrel_prob.Par.count} but
    [chunk], which stays {!Memrel_prob.Par.default_chunk}. With
    [target_width] it runs until the 95% Wilson interval has width
    [<= target_width] (the stopping trial count is deterministic per (seed,
    schedule) and jobs-invariant), up to [max_trials]; without it, all
    [max_trials] run. A budget partial reports the estimate over
    [trials_done] with an honestly widened interval (the vacuous [[0, 1]]
    around a [nan] point when nothing completed). *)

val sample_geom : q:float -> Memrel_prob.Rng.t -> int array -> sample
(** Like {!sample} but with geometric(q) shifts — pmf [(1-q) q^k] — the
    generalized dispersion of {!Memrel_shift.Exact.disjoint_probability_geom}.
    Requires [0 < q < 1]. [q = 0.5] coincides with {!sample}'s law. Kept
    for tests: the oracle's closure estimator draws through it. *)

val estimate_geom :
  ?jobs:int -> q:float -> trials:int -> Memrel_prob.Rng.t -> int array ->
  float * Memrel_prob.Stats.interval
(** Monte Carlo counterpart of the generalized exact formula ([jobs] as in
    {!estimate}). *)
