(** Litmus-test corpus with per-model expectations.

    Each test names a distinguished "relaxed outcome" — the observation the
    literature asks about — together with the set of paper models expected
    to allow it under this simulator's semantics. {!check} runs the
    exhaustive enumerator and verdicts the expectation; the test suite does
    this for the whole corpus under all four models, which is the
    end-to-end validation of the operational substrate. The corpus includes
    the canonical atomicity violation of Section 2.2 (allowed everywhere,
    including SC — exactly the paper's point of departure). *)

type outcome = (string * int) list
(** Named observables, e.g. [("0:r0", 1); ("1:r1", 0); ("x", 2)], sorted by
    name. *)

type t = {
  name : string;
  description : string;
  programs : Instr.t array list;
  initial_mem : (int * int) list;
  observe : State.t -> outcome;
  relaxed_outcome : outcome;
  allowed_under : Memrel_memmodel.Model.family -> bool;
      (** expected: may [relaxed_outcome] occur under the model? *)
}

val x : int
(** Location 0 — the shared variable of the canonical bug. *)

val y : int
(** Location 1. *)

val observe_regs : (int * int) list -> State.t -> outcome
(** [observe_regs specs] observes [(thread, reg)] pairs, named
    ["<thread>:r<reg>"]. *)

val all : t list
(** The corpus: canonical increment (atomicity violation), the same bug
    fixed with an atomic fetch-and-add, store buffering (SB), SB with full
    fences, SB fenced on one side only, message passing (MP), MP with
    release/acquire fences, load buffering (LB), coherence (CoRR), 2+2W,
    write-to-read causality (WRC), independent reads of independent writes
    (IRIW). *)

val increment_n : int -> t
(** [increment_n n] is the canonical atomicity violation generalized to [n]
    unsynchronized incrementing threads (observing the final value of x;
    the relaxed outcome asked about is x = 1, the maximal loss). The paper's
    Theorem 6.3 regime, machine-side. Requires [n >= 2]. *)

val names : string list
(** The corpus test names, in {!all} order — what an "unknown test" error
    should offer the user. *)

val max_inc_threads : int
(** The largest N (64) that {!find} resolves as ["incN"], far beyond what
    any engine enumerates. The bound keeps a name sent by a client of the
    daemon from building a test with a billion threads. *)

val find : string -> t
(** Lookup by name. Names of the form ["incN"] (2 <= N <= {!max_inc_threads})
    resolve to {!increment_n}[ N] even though only the corpus tests are in
    {!all}. N is canonical decimal: ["inc05"], ["inc+5"], ["inc0x5"] or
    ["inc0b101"] name nothing, so a test has one name. Raises [Not_found],
    before building anything for an incN name above the bound. *)

val unknown_test : string -> string
(** [unknown_test name] is the one-line refusal of a name {!find} does not
    resolve, offering {!names} and the incN family; the CLI and the daemon
    both word it this way. *)

val hash : t -> string
(** Stable structural digest (16 hex chars, FNV-1a 64) over the instruction
    streams, initial memory and the relaxed-outcome observable spec —
    independent of [name]/[description], so renaming a test cannot alias or
    split a service cache entry. Collision-free across the corpus (tested,
    including the [incN] family and the parsed [.litmus] files). *)

val structure : t -> int * int * int
(** [(threads, distinct locations, memory events)] — locations counted over
    instruction accesses and the initial memory, events over loads, stores
    and RMWs. *)

val corpus_table : unit -> string
(** The `memrel litmus list` listing: one row per corpus test with its
    {!hash} and {!structure} counts. Pinned by a golden test. *)

val initial_state : t -> State.t

val run_exhaustive :
  ?window:int ->
  ?max_states:int ->
  ?por:bool ->
  t ->
  Memrel_memmodel.Model.family ->
  outcome Enumerate.result
(** All outcomes of the test under a model's discipline. [max_states] and
    [por] are passed to {!Enumerate.outcomes}. *)

val outcome_set :
  ?window:int ->
  ?max_states:int ->
  ?por:bool ->
  t ->
  Memrel_memmodel.Model.family ->
  outcome list
(** The distinct reachable observations only, sorted — the operational
    side of the axiomatic-vs-operational differential check. *)

type verdict = {
  test : string;
  model : Memrel_memmodel.Model.family;
  observed_relaxed : bool;
  expected_relaxed : bool;
  agrees : bool;
  outcome_count : int;
}

val check : ?window:int -> t -> Memrel_memmodel.Model.family -> verdict
(** Compare observed reachability of the relaxed outcome against the
    expectation. *)

val check_all : ?window:int -> unit -> verdict list
(** Every test under every standard model family. *)
