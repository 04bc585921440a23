(** Chronological enumeration of allowed candidate executions — the
    axiomatic engine.

    The solver walks the {e same} decision tree as a plain generate-and-prune
    enumeration — a coherence-order slot per location then a reads-from
    source per read, values in the same sequence — so it accepts exactly the
    candidate set generate-and-prune does, with the same per-outcome
    candidate counts; that enumeration is kept in the test oracle library
    as the solver's differential reference. The difference is machinery:
    each decision's edges go into trail-based incremental acyclicity
    closures with per-instance watched wakeups, so a subtree is cut as soon
    as its prefix closes a cycle; rf domains are filtered against the
    static closures before search (a singleton domain becomes a forced
    assignment); and leaf outcomes are memoized, keyed by the rf vector
    and each location's coherence-maximal write. *)

type stats = {
  events : int;
  accepted : int;  (** allowed candidate executions visited *)
  decisions : int;  (** co/rf value attempts (skips by pruning excluded) *)
  propagations : int;  (** edges installed into watching instances *)
  conflicts : int;  (** edge insertions rejected by a cycle check *)
  forced : int;  (** rf assignments forced by root domain filtering *)
  memo_hits : int;  (** leaves answered by the outcome memo table *)
  distinct_keys : int;  (** distinct (rf, co-last) keys seen at leaves *)
  log10_naive_space : float;
      (** log10 of |co permutations| x |rf assignments|
          ({!Event.log10_naive_space}) *)
  naive_space : float;  (** {!Event.naive_space_of_log10} of the above *)
  elapsed_s : float;
  candidates_per_sec : float;
  exhausted : Memrel_prob.Budget.exhaustion option;
      (** [None] iff the enumeration ran to completion. [Some _] marks a
          {e partial} enumeration: the candidates visited before a
          {!Memrel_prob.Budget} limit tripped (work units are accepted
          candidates). Partial coverage is sound for "allowed", never for
          "forbidden". *)
}

type entry = {
  outcome : Memrel_machine.Litmus.outcome;
  candidates : int;  (** allowed candidate executions observing it *)
  witness : Candidate.t;
}

type run = { stats : stats; entries : entry list }

val run :
  ?window:int ->
  ?budget:Memrel_prob.Budget.t ->
  Memrel_machine.Litmus.t ->
  Memrel_memmodel.Model.family ->
  run
(** Enumerate and group by observed outcome, sorted by outcome — entry
    outcomes {e and} candidate counts equal generate-and-prune's on a
    complete run. [window] sizes the WO reorder window. [budget] is
    checked at every decision and one work unit is spent per accepted
    candidate. Raises [Invalid_argument] for [Custom] models and programs
    beyond {!Order.max_vertices} events. *)

val outcome_set :
  ?window:int ->
  ?budget:Memrel_prob.Budget.t ->
  Memrel_machine.Litmus.t ->
  Memrel_memmodel.Model.family ->
  Memrel_machine.Litmus.outcome list
(** Just the distinct outcomes, sorted — comparable with
    {!Memrel_machine.Litmus.outcome_set} (only when complete). *)
