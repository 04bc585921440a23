(** Query dispatch: protocol queries onto the repo's engines.

    Each {!Protocol.query} kind maps to one engine — [Verify]/[Enumerate]
    to the exhaustive enumerator, [Axiom] to the chronological solver,
    [Estimate] to the Monte Carlo estimators (fixed-trial or, with a target
    width, adaptive) at [jobs:1], so every answer is deterministic per
    query. Per-request {!Protocol.limits} are clamped field-wise by the
    server's {!caps} and become a {!Memrel_prob.Budget}; exhaustion yields
    a typed partial result, never an error. *)

type caps = {
  max_deadline_s : float option;
  max_work_cap : int option;
  max_mem_mb_cap : int option;
}
(** Server-side ceilings: each request limit is [min]-ed with its cap, and
    a cap alone arms the budget even for a request without limits. *)

val no_caps : caps

type extmem = { spill_root : string; mem_budget_bytes : int }
(** Route [Verify]/[Enumerate] queries through the external-memory BFS
    ({!Memrel_machine.Extmem}): each query spills under
    [spill_root/<sanitized cache key>], so enumerations larger than RAM
    complete exactly — the engines agree bit-for-bit on complete results,
    so cached bytes are unaffected. A budget-tripped run keeps its spill
    state and the next identical query resumes it; complete runs delete
    their spill directory. *)

type error = { code : Protocol.error_code; message : string }

val cache_key : Protocol.query -> (string, error) result
(** Canonical cache key, e.g. ["verify|{hash}|TSO|w8"] or
    ["axiom|{hash}|TSO|w8"]. Built on {!Memrel_machine.Litmus.hash}, so
    renaming a test cannot split or alias an entry; floats are rendered
    with [%h] so distinct estimator parameters cannot collide. Also the single validation point:
    [Bad_request] for out-of-range parameters, [Unknown_test],
    [Unsupported] for [Custom] families. *)

val run :
  caps:caps ->
  ?extmem:extmem ->
  Protocol.query ->
  Protocol.limits ->
  (Protocol.result, error) result
(** Execute directly (no cache). A deadline that is negative or not
    finite, a negative [max_work] or a [max_mem_mb] outside
    [0 .. max_int lsr 20] is a [Bad_request] naming the field. *)

val run_cached :
  caps:caps ->
  ?extmem:extmem ->
  Cache.t ->
  Protocol.query ->
  Protocol.limits ->
  (string * Cache.origin, error) result
(** Execute through a cache. The cached value is {!Protocol.encode_result}
    bytes; only complete results (no [partial]) are stored, and limits are
    not part of the key — a complete cached answer satisfies any budget.
    A hit is byte-identical to the original computation. Limits are
    checked as in {!run}, on a hit too. *)
