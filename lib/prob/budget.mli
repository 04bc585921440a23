(** Cooperative resource budgets for long-running engines.

    Every unbounded loop in memrel — the Monte Carlo chunk scheduler
    ({!Par}), the exhaustive litmus enumerator, the axiomatic candidate
    generator — periodically asks a budget whether it may continue. A budget
    combines up to three limits:

    - a {e wall-clock deadline}, measured from {!create};
    - a {e work cap}, counted in engine-specific units (chunks for Monte
      Carlo, admitted states for enumeration, accepted candidates for the
      axiomatic generator) that the engine reports via {!spend};
    - an {e allocation watermark} over the major heap, sampled with
      [Gc.quick_stat] (no heap walk, but about 1.5 µs a call): on the
      first {!check}, then at most once per {!sample_every} work units
      while the heap is under the watermark, and on every check once a
      sample was over it.

    Checks are cooperative and coarse-grained — engines poll at
    chunk/state/candidate granularity, so a deadline is honoured to within
    one work unit, not preemptively. On exhaustion an engine does not raise:
    it returns a typed partial result carrying everything computed so far
    plus the {!exhaustion} record (see [Par.run],
    [Enumerate.outcomes], [Solver.run]).

    A budget is single-use: it anchors its deadline at creation and its work
    counter only grows. Create a fresh one per run. [spend]/[check] are
    domain-safe (the counter is atomic), so one budget can govern a parallel
    fan-out. *)

type cause =
  | Deadline  (** the wall-clock deadline passed *)
  | Work  (** the work cap was reached *)
  | Memory  (** the major heap grew past the watermark *)

type exhaustion = {
  cause : cause;
  work_done : int;  (** work units spent when the budget tripped *)
  elapsed_s : float;  (** wall-clock seconds since {!create} *)
}

type t

val create : ?deadline_s:float -> ?max_work:int -> ?max_mem_bytes:int -> unit -> t
(** [create ()] is an unlimited budget; each optional limit arms one check.
    The deadline clock starts now. Raises [Invalid_argument] if a limit is
    negative ([max_work 0] and [deadline_s 0.] are legal: they trip on the
    first check, which is how the CLI turns [--deadline 0] into a
    deterministic immediately-partial run). *)

val spend : t -> int -> unit
(** [spend t n] records [n] completed work units. Atomic; callable from any
    domain. *)

val work_done : t -> int
val elapsed_s : t -> float

val sample_every : int
(** 256: the work units {!spend} may record between two heap samples, so
    a heap past the watermark trips [check] within that many units. Kept
    for tests, which trip the watermark at exactly this unit. *)

val check : t -> cause option
(** [check t] is [Some cause] once any armed limit is exhausted, testing the
    work cap first, then the deadline, then the memory watermark. With no
    limits armed it never allocates and costs two loads. Exhaustion is
    sticky for the work counter and the deadline (they only grow), but the
    memory cause can clear if the GC shrinks the heap — engines treat the
    first [Some] as final. *)

val exhaustion : t -> cause -> exhaustion
(** Snapshot the counters into the record engines embed in partial
    results. *)

val cause_to_string : cause -> string
(** ["deadline"], ["work cap"], ["memory watermark"] — for one-line
    summaries. *)

val describe : exhaustion -> string
(** Human-readable one-liner, e.g. ["deadline after 2.01s (14 work units
    done)"]. *)
