(** Candidate-execution generation with incremental axiomatic pruning.

    Enumerates the executions of a litmus program allowed by a memory
    model's axioms (see {!Axioms}): first the coherence order per location
    (as a permutation, committing only consecutive edges — transitive
    closure maintenance makes that sufficient), then a reads-from source
    per read (the initial value or any same-location write), deriving the
    from-reads edges as each rf choice is made. Every partial choice is
    checked against all of the model's acyclicity instances immediately, so
    an inconsistent branch is abandoned at its first bad edge instead of
    being completed and filtered — the [pruned] / [naive_space] statistics
    quantify how much of the naive space is never visited. Every leaf the
    search reaches is therefore an allowed candidate execution.

    This is the differential oracle for {!Memrel_axiom.Solver}, which walks
    the same decision tree: both must accept the same candidates, per
    outcome. *)

open Memrel_axiom

type stats = {
  events : int;
  accepted : int;  (** allowed candidate executions visited *)
  co_branches : int;  (** coherence-order extension attempts *)
  rf_branches : int;  (** reads-from assignment attempts *)
  pruned : int;  (** dynamic edge insertions rejected by a cycle check *)
  log10_naive_space : float;
      (** log10 of |co permutations| x |rf assignments| — the space a
          generate-then-filter enumeration would visit, in log space so
          solver-scale event graphs cannot overflow it
          ({!Event.log10_naive_space}) *)
  naive_space : float;
      (** linear-space convenience, [10 ** log10_naive_space] clamped to
          [max_float] — never [infinity]/[nan] (the seed's float-factorial
          product overflowed around 171 same-location writes) *)
  pruning_ratio : float;  (** pruned / (co_branches + rf_branches) *)
  elapsed_s : float;
  candidates_per_sec : float;  (** accepted / elapsed *)
  exhausted : Memrel_prob.Budget.exhaustion option;
      (** [None] iff the enumeration ran to completion. [Some _] marks a
          {e partial} enumeration: the candidates visited before a
          {!Memrel_prob.Budget} limit tripped (work units are accepted
          candidates, so a [max_work] cap bounds the candidate count; the
          deadline and memory watermark cap the search itself). Partial
          coverage is a subset of the allowed executions — sound for
          "allowed", never for "forbidden". *)
}

val iter :
  ?window:int ->
  ?budget:Memrel_prob.Budget.t ->
  Memrel_machine.Litmus.t ->
  Memrel_memmodel.Model.family ->
  (Candidate.t -> unit) ->
  stats
(** Visit every allowed candidate execution. [window] (default 8) sizes the
    WO reorder window, matching {!Memrel_machine.Semantics.of_model}.
    [budget] is checked at every branch attempt and one work unit is spent
    per accepted candidate; on exhaustion the search stops and the returned
    stats carry [exhausted = Some _]. Raises [Invalid_argument] for
    [Custom] models and for programs with more than {!Order.max_vertices}
    memory events. *)

type entry = {
  outcome : Memrel_machine.Litmus.outcome;
  candidates : int;  (** allowed candidate executions observing it *)
  witness : Candidate.t;  (** one of them, for rendering *)
}

type run = { stats : stats; entries : entry list }

val run :
  ?window:int ->
  ?budget:Memrel_prob.Budget.t ->
  Memrel_machine.Litmus.t ->
  Memrel_memmodel.Model.family ->
  run
(** Group the allowed executions by observed outcome, sorted by outcome —
    the axiomatic side of the differential check. With a [budget], a
    partial run groups only the candidates visited before exhaustion
    ([stats.exhausted] says so) — callers must not treat a partial outcome
    set as complete (the CLI skips the differential comparison then). *)

val outcome_set :
  ?window:int ->
  ?budget:Memrel_prob.Budget.t ->
  Memrel_machine.Litmus.t ->
  Memrel_memmodel.Model.family ->
  Memrel_machine.Litmus.outcome list
(** Just the distinct outcomes, sorted — directly comparable with
    {!Memrel_machine.Enumerate.outcome_set} (only when complete; see
    {!run}). *)
