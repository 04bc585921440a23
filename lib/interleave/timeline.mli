(** Semantic execution of the canonical bug on the joined timeline.

    The paper's chain equates "some pair of critical windows overlap" with
    "the atomicity violation manifests" (Section 3.2 / Appendix A.3). This
    module closes the loop semantically: it takes the settled positions of
    every thread's critical LD/ST, places them on the common time axis with
    the thread shifts, and actually EXECUTES the increments under the
    paper's timing rules — loads read the shared variable instantaneously
    at the start of their step, stores commit at the end — then checks
    whether the final value equals the thread count.

    The test suite uses this to validate the paper's equivalence: the final
    value is n exactly when the inclusive windows are pairwise disjoint
    (and the property test hunts for counterexamples). *)

type schedule = { load_time : int; store_time : int }
(** One thread's critical instruction times; [load_time < store_time]
    required (the store never passes the load). *)

val execute : schedule array -> int
(** [execute schedules] runs the increments and returns the final value of
    the shared variable. Simultaneous loads all read the pre-step value;
    simultaneous stores commit in argument order (the choice cannot affect
    whether the result equals n). Raises [Invalid_argument] on an empty
    array or a schedule with [load_time >= store_time]. *)

val windows_disjoint : schedule array -> bool
(** Whether the inclusive integer windows [load_time .. store_time] are
    pairwise disjoint. Kept for tests: on arbitrary schedules, x = n
    exactly when the windows are disjoint. *)

type sample = {
  final_value : int;
  disjoint : bool;
  schedules : schedule array;
}

val sample :
  ?p:float -> ?m:int -> Memrel_memmodel.Model.t -> n:int -> Memrel_prob.Rng.t -> sample
(** One end-to-end draw: a shared random program, [n] independent settlings,
    geometric shifts, semantic execution. The [disjoint] field is the
    Appendix A.3 overlap event on the same draw. *)

val bug_rate :
  ?p:float -> ?m:int -> trials:int ->
  Memrel_memmodel.Model.t -> n:int -> Memrel_prob.Rng.t ->
  float * float
(** [(semantic, overlap)]: the empirical Pr[final != n] and Pr[some
    windows overlap] over the same draws — equal when the paper's
    equivalence holds (they are, see the tests, which also check it
    per-draw). *)
