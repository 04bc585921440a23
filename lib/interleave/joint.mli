(** The joined model (Section 6 / Appendix A.3): end-to-end simulation.

    One random initial program is generated; [n] identical copies are
    settled independently under the memory model; the threads' critical
    windows are then interleaved by the shift process. The bug manifests
    when some pair of windows collides.

    Two overlap conventions are provided:

    - [`Paper]: segment lengths Gamma_k = gamma_k + 2 fed to the Definition-1
      shift process — exactly what Theorems 6.1/6.2 compute (this is the
      convention reproducing the paper's 1/6, 7/54, ... values).
    - [`Strict]: the literal Appendix A.3 event — windows are the inclusive
      integer index sets of the settled critical LD .. critical ST, placed
      at their absolute settled positions minus the thread shift, and the
      bug manifests only when two windows share a time step. This is
      strictly weaker (fewer collisions: segments merely touching
      end-to-start do not collide), so Pr[A] is larger; e.g. SC at n = 2
      gives 1/3 instead of 1/6. The delta is an endpoint convention inside
      the paper itself, surfaced here as a measurable ablation. *)

type convention = [ `Paper | `Strict ]

type estimate = {
  pr_no_bug : float;  (** point estimate of Pr[A] *)
  ci : Memrel_prob.Stats.interval;  (** 95% Wilson interval *)
  trials : int;
}

val sample :
  ?p:float -> ?m:int -> ?gap:int -> ?convention:convention ->
  Memrel_memmodel.Model.t -> n:int -> Memrel_prob.Rng.t -> bool
(** [sample model ~n rng] runs one end-to-end experiment and returns
    [true] when no bug manifests (the event A). [n >= 2] required. [gap]
    (default 0) puts that many plain operations inside the critical section
    (see {!Memrel_settling.Program.generate_with_gap}) — the generalized
    bug pattern where the programmer needs more than two instructions of
    atomicity. *)

val estimate :
  ?p:float -> ?m:int -> ?gap:int -> ?convention:convention -> ?jobs:int -> trials:int ->
  Memrel_memmodel.Model.t -> n:int -> Memrel_prob.Rng.t -> estimate
(** Monte Carlo estimate of Pr[A]. Trials fan out over [jobs] domains via
    {!Memrel_prob.Par} (default {!Memrel_prob.Par.default_jobs}); for a
    fixed seed the estimate is bit-identical at every [jobs]. *)

val estimate_adaptive :
  ?p:float -> ?m:int -> ?gap:int -> ?convention:convention -> ?jobs:int ->
  ?budget:Memrel_prob.Budget.t ->
  ?report:(trials:int -> successes:int -> unit) ->
  ?target_width:float ->
  ?checkpoint:string -> ?checkpoint_every:int -> ?resume:string ->
  max_trials:int ->
  Memrel_memmodel.Model.t -> n:int -> Memrel_prob.Rng.t ->
  estimate Memrel_prob.Par.outcome
(** {!estimate} with every option of {!Memrel_prob.Par.count} but
    [chunk], which stays {!Memrel_prob.Par.default_chunk}. With
    [target_width] it runs until the 95% Wilson interval for Pr[A] has
    width [<= target_width] (the stopping trial count is deterministic per
    (seed, schedule) and jobs-invariant), up to [max_trials]; without it,
    all [max_trials] run. A budget partial reports the estimate over
    [trials_done] with an honestly widened interval. *)

val semi_analytic :
  ?p:float -> ?m:int -> ?gap:int -> ?jobs:int -> trials:int ->
  Memrel_memmodel.Model.t -> n:int -> Memrel_prob.Rng.t -> float
(** Variance-reduced estimator of the [`Paper]-convention Pr[A]: samples
    only the window-length vector (program + settling) and applies
    Theorem 6.1's exact shift-side formula
    [c(n) 2^-C(n+1,2) n! E[prod_i 2^(-i Gamma_i)]] to the sample mean of
    the product. Unlike the independence approximation, this respects the
    cross-thread correlation induced by the shared program, and it needs no
    rare-event luck from the shift sampler, so it stays accurate at [n]
    where direct Monte Carlo would return all-zeros. *)
