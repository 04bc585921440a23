(** Exhaustive state-space exploration (stateless model checking).

    Iterative worklist search over the transition relation with compact
    structural state deduplication — the recursion depth is bounded only by
    the heap, so deep state spaces (e.g. [Litmus.increment_n 4] and beyond)
    enumerate without [Stack_overflow]. Every reachable final state — hence
    the complete set of observable outcomes under a memory model — is
    computed exactly. This is what turns the operational simulator into an
    oracle for "is this relaxed outcome allowed under model M?".

    With [~por:true] an ample-set partial-order reduction prunes
    interleavings of provably independent transitions (thread-local steps,
    and accesses to locations disjoint from every other thread's remaining
    footprint). The reduction preserves the reachable terminal-state set
    exactly — outcome sets and terminal counts are identical with and
    without it (property-tested over the whole litmus corpus); only
    [states_visited] and the exploration statistics shrink. The soundness
    argument is spelled out in DESIGN.md §8.

    Without POR the worklist carries sleep sets: a transition that
    commutes with a sibling explored before it is skipped, not built,
    because a commuting path has already admitted its successor. It admits
    exactly the states a plain worklist admits, in the same order, and
    reports the same statistics (DESIGN.md §8). *)

type stats = {
  elapsed_s : float;  (** wall-clock exploration time *)
  states_per_sec : float;  (** distinct states admitted per second *)
  transitions : int;
      (** enabled transitions of the expanded states, whether their
          successor was built or skipped as asleep *)
  dedup_hits : int;
      (** transitions that admitted no new state: [transitions - (admitted
          - 1)], whether the successor was built and found visited or
          skipped as asleep *)
  max_depth : int;  (** deepest state expanded (path length from the root) *)
  max_frontier : int;  (** peak count of admitted states not yet expanded *)
  por_ample_states : int;  (** states where an ample subset was selected *)
  por_pruned : int;  (** transitions pruned by the ample-set reduction *)
}

type 'a result = {
  outcomes : ('a * int) list;
      (** distinct observations with the number of distinct terminal states
          mapping to each, sorted by observation *)
  states_visited : int;
  terminals : int;
  stats : stats;
  exhausted : Memrel_prob.Budget.exhaustion option;
      (** [None] iff the exploration ran to completion. [Some _] marks a
          {e partial} exploration — outcomes/terminals cover only the states
          expanded before the state cap or a {!Memrel_prob.Budget} limit
          tripped (cause [Work] for the [max_states] cap, where admitted
          states are the work units). A partial outcome set is a {e subset}
          of the true one: sound for "outcome X is reachable", never for
          "outcome X is impossible". *)
}

val expand :
  por:bool -> Semantics.discipline -> State.t -> (Semantics.label * State.t) list * int
(** [expand ~por d st] is one state's successor computation — the enabled
    transitions, after the ample-set reduction when [por] is set — together
    with the number of transitions the reduction pruned at this state. The
    POR choice is a deterministic function of the state alone, so engines
    with different traversal orders (the in-RAM worklist here, the
    level-synchronized external-memory BFS in {!Extmem}) explore the exact
    same reduced graph. An empty successor list identifies a terminal
    state. *)

(** {2 Sleep sets}

    One table per state space serves both engines: {!Semantics.codes},
    each code's shared-memory effect (for POR), and which codes do not
    commute: those of one thread, and accesses to one location of which
    one writes. A sleep set is a mask over codes, fixed when the state is
    admitted; a label in it is not built, because a commuting path admits
    its successor (DESIGN.md §8). *)

type space

val space : por:bool -> Semantics.discipline -> State.t -> space
(** [space ~por d root] is the table for the state space of [root] under
    [d]. With [por], and past 61 codes, every sleep set it gives is 0. *)

val codes : space -> Semantics.codes

val sleep_bytes : space -> int
(** Bytes that hold any sleep set: one bit per code, 0 when every sleep
    set is 0. *)

val select : space -> State.t -> int array -> int
(** [select sp st bits], [bits] the enabled codes of [st]: under POR,
    keeps only the ample thread's codes, if any, and returns how many it
    dropped. *)

val iter_awake : space -> sleep:int -> int array -> ('a -> int -> int -> unit) -> 'a -> int
(** [iter_awake sp ~sleep bits f parent], for a state [parent] with sleep
    set [sleep] and the codes t₁..tₙ set in [bits], calls [f parent t_j z]
    on each t_j not in [sleep], in order, where [z = (sleep lor
    bits(t_{j+1..n})) land lnot dep(t_j)] is the sleep set t_j's successor
    is admitted with. Returns the number of codes in [sleep], which are
    skipped. [f] takes the state as an argument so that one closure
    serves every state of a run. *)

val renumber : space -> int -> int
(** A sleep set renumbered as {!Extmem}'s runs hold it, and back: each
    thread's flushes lowest location first. *)

val outcomes :
  ?max_states:int ->
  ?por:bool ->
  ?budget:Memrel_prob.Budget.t ->
  Semantics.discipline ->
  State.t ->
  observe:(State.t -> 'a) ->
  'a result
(** [outcomes d st ~observe] explores exhaustively. At most [max_states]
    (default 2_000_000) distinct states are {e expanded}; at the cap the
    exploration stops and returns a partial result with
    [exhausted = Some { cause = Work; _ }]. The cap, the budget and
    [states_visited] all count unique states actually expanded — never
    duplicates, and never states merely sitting on the worklist — so a partial
    run has explored exactly [max_states] distinct states (historically the
    cap fired on {e admission}, while the worklist could still hold unexplored
    unique states that were then abandoned and miscounted). [budget] is
    checked at every expansion, spending one work unit per expanded state;
    tripping any of its limits (deadline, work cap, memory watermark) likewise
    yields a partial result. [por] (default [false]) enables the ample-set
    partial-order reduction. States are deduplicated on their
    {!State.packed_key} bytes, held in an {!Arena_set}. The call owns all of
    its scratch (packer, visited set, worklist), so concurrent calls from
    several domains are independent. *)

val outcome_set : 'a result -> 'a list
(** The distinct observations of a result, without their terminal-state
    counts and in the same sorted order — the set an alternative semantics
    (e.g. the axiomatic checker in [lib/axiom]) must reproduce exactly. *)
