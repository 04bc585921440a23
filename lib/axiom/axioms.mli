(** Per-model acceptance conditions over candidate executions.

    Each memory model is rendered as a conjunction of acyclicity axioms.
    An {!instance} is one such axiom: a set of static edges (derived from
    program order, the Table-1 reordering matrix of
    {!Memrel_memmodel.Model}, and fences) plus a selector saying which
    communication edges (rf / co / fr) the axiom constrains. The solver
    keeps one incremental {!Order} per instance and rejects an rf/co
    choice the moment any instance's order would close a cycle.

    - SC: one instance; static = full program order, all com edges.
    - TSO/PSO: a global-happens-before instance (static = matrix-preserved
      program order plus Full/Release fence edges; rf counted only when
      external, reflecting store-to-load forwarding) and an SC-per-location
      instance (static = same-location program order, all com edges).
      Update events are both LD and ST and additionally preserved outright,
      matching the locked drain-the-buffer implementation.
    - WO: one instance; static = transitive closure of the window machine's
      issue constraints ([Semantics.conflicts] plus the bounded-window
      edges), restricted to memory events; all com edges. *)

type com = Rf | Co | Fr

type instance = {
  iname : string;  (** for diagnostics: ["hb"], ["ghb"], ["sc-per-loc"] *)
  static_edges : (int * int) list;  (** event-id pairs, installed once *)
  wants : com -> internal:bool -> bool;
      (** does this axiom constrain the given communication edge?
          [internal] = both endpoints on the same thread. *)
}

val instances :
  Memrel_machine.Semantics.discipline ->
  Memrel_machine.Instr.t array list ->
  Event.t array ->
  instance list
(** The acceptance condition of a discipline over the given program's
    events. A candidate execution is allowed iff every instance's relation
    (static edges plus selected com edges) is acyclic. *)

val fence_edges :
  Memrel_machine.Instr.t array list -> Event.t array -> (int * int) list
(** Ordering edges contributed by Full/Release fences: per-thread event
    slices only (the seed scanned the whole event array twice per fence —
    O(fences * E^2)), emitting a transitively-irredundant subset whose
    closure equals the full before x after product. Kept for tests: the
    oracle library's dense emission pins that closure corpus-wide. *)
