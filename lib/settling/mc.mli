(** Monte Carlo estimation of critical-window statistics.

    Samples the full program-generation + settling pipeline and estimates
    Pr[B_gamma] empirically, with confidence intervals. The prefix length
    [m] stands in for the paper's m -> infinity limit; the default 64 makes
    truncation effects (a critical LD bubbling off the top) smaller than
    2^-40, far below sampling noise.

    Every estimator runs the zero-allocation {!Scratch} kernel on
    {!Memrel_prob.Par.run}: for a fixed seed the result is bit-identical at
    every [jobs] (default {!Memrel_prob.Par.default_jobs}; [jobs:1] stays
    on the calling domain). *)

type estimate = {
  gamma_pmf : (int * float) list;  (** empirical Pr[B_gamma] *)
  trials : int;
  mean_gamma : float;
  histogram : Memrel_prob.Stats.histogram;
}

val sample_gamma :
  ?p:float -> ?m:int -> Memrel_memmodel.Model.t -> Memrel_prob.Rng.t -> int
(** [sample_gamma model rng] draws one program, settles it, and returns the
    window growth gamma. The {!Scratch} kernel replays its draws exactly. *)

val estimate :
  ?p:float -> ?m:int -> ?jobs:int -> trials:int ->
  Memrel_memmodel.Model.t -> Memrel_prob.Rng.t -> estimate
(** [estimate ~trials model rng] aggregates [trials] samples of gamma. *)

val estimate_governed :
  ?p:float -> ?m:int -> ?jobs:int ->
  ?budget:Memrel_prob.Budget.t ->
  ?checkpoint:string -> ?checkpoint_every:int -> ?resume:string ->
  trials:int ->
  Memrel_memmodel.Model.t -> Memrel_prob.Rng.t ->
  estimate Memrel_prob.Par.outcome
(** {!estimate} with a budget and checkpoint/resume (see
    {!Memrel_prob.Par.run}). On budget exhaustion the estimate covers the
    trials that completed ([trials_done]), with [exhausted = Some _]; a
    complete run is bit-identical to {!estimate}. An immediately exhausted
    run returns the empty estimate ([trials = 0], [mean_gamma = nan]). *)

val probability_b :
  ?p:float -> ?m:int -> ?jobs:int -> trials:int -> gamma:int ->
  Memrel_memmodel.Model.t -> Memrel_prob.Rng.t ->
  float * Memrel_prob.Stats.interval
(** [probability_b ~trials ~gamma model rng] is the point estimate of
    Pr[B_gamma] with its 95% Wilson interval. Kept for tests, which check
    the kernel against the oracle's closure estimator at a fixed budget. *)

val probability_b_adaptive :
  ?p:float -> ?m:int -> ?jobs:int ->
  ?budget:Memrel_prob.Budget.t ->
  ?report:(trials:int -> successes:int -> unit) ->
  ?target_width:float ->
  ?checkpoint:string -> ?checkpoint_every:int -> ?resume:string ->
  max_trials:int -> gamma:int ->
  Memrel_memmodel.Model.t -> Memrel_prob.Rng.t ->
  (float * Memrel_prob.Stats.interval) Memrel_prob.Par.outcome
(** {!probability_b} with every option of {!Memrel_prob.Par.count} but
    [chunk], which stays {!Memrel_prob.Par.default_chunk}. With
    [target_width] it runs until the 95% Wilson interval for Pr[B_gamma]
    has width [<= target_width] (the stopping trial count is deterministic
    per (seed, schedule) and jobs-invariant), up to [max_trials]; without
    it, all [max_trials] run. A budget partial reports the estimate over
    [trials_done] with an honestly widened interval (the vacuous [[0, 1]]
    around a [nan] point when nothing completed); [report] prints the
    running estimate every 16 chunks. *)
