(** Axiomatic-vs-operational differential validation.

    For a litmus test and a model family, compares the outcome set the
    axioms allow ({!Solver}) with the outcome set reachable by the
    operational machine ({!Memrel_machine.Litmus.run_exhaustive}).
    Disagreements carry a rendered counterexample event graph when the
    axiomatic side has a witness. A budgeted run that comes back partial
    {e refuses} the comparison (partial coverage is sound for "allowed",
    never for "forbidden") instead of reporting false disagreements. *)

type disagreement = {
  outcome : Memrel_machine.Litmus.outcome;
  axiomatic : bool;  (** allowed by the axioms *)
  operational : bool;  (** reachable by the machine *)
  witness : string option;
      (** rendered event graph of an axiomatic witness execution; [None]
          for operational-only outcomes (the axioms are too strong — there
          is no candidate to draw) *)
}

type report = {
  test : string;
  family : Memrel_memmodel.Model.family;
  window : int;
  axiomatic : (Memrel_machine.Litmus.outcome * int) list;
      (** allowed outcomes with their accepted-candidate counts, sorted by
          outcome *)
  operational : Memrel_machine.Litmus.outcome list;
  agree : bool;  (** the two outcome sets are equal (always [false] when
                     [partial] — an unfinished side proves nothing) *)
  partial : bool;
      (** some side exhausted its budget/state cap; the comparison was
          refused and [disagreements] is empty *)
  disagreements : disagreement list;
  stats : Solver.stats;
  operational_states : int;  (** distinct terminal states explored *)
}

val standard_families : Memrel_memmodel.Model.family list
(** SC, TSO, PSO, WO — the four paper models. *)

val run :
  ?window:int ->
  ?max_states:int ->
  ?por:bool ->
  ?budget:Memrel_prob.Budget.t ->
  Memrel_machine.Litmus.t ->
  Memrel_memmodel.Model.family ->
  report
(** One test under one model. [window] (default 8) is used on both sides;
    [max_states] and [por] go to the operational enumerator; [budget] to
    the solver. *)

val outcome_to_string : Memrel_machine.Litmus.outcome -> string

val describe : report -> string
(** Human-readable summary; includes counterexample graphs on
    disagreement. *)
