(** A fully-chosen candidate execution: events plus rf and co.

    [fr] is derived, values are computed, and the terminal machine state is
    synthesized — no operational run is involved. This is the object the
    solver keeps as an outcome's witness and the differential renders as a
    counterexample. *)

type t = {
  events : Event.t array;
  programs : Memrel_machine.Instr.t array array;
  initial_mem : (int * int) list;
  rf : int option array;
      (** per event id; for reads, [Some w] = reads from write event [w],
          [None] = reads the initial value. Meaningless for pure writes. *)
  co : (int * int list) list;
      (** per location, the write event ids in coherence order. *)
}

val outcome : t -> observe:(Memrel_machine.State.t -> 'a) -> 'a
(** [observe] applied to the terminal state this candidate denotes:
    memory = coherence-maximal writes over the initial memory, registers =
    full program-order replay with loads returning their rf sources'
    values, buffers empty. It is the same observation function the
    operational enumerator uses, so outcome sets are directly comparable.
    Values are well-defined because accepted candidates exclude
    value-dependency cycles (they would be po/rf cycles); raises [Failure]
    on a cyclic candidate. *)

val describe : ?loc_name:(int -> string) -> t -> string
(** Multi-line event-graph rendering (threads, per-event values, rf/co/fr
    edges) via {!Memrel_trace.Render.event_graph}. *)
