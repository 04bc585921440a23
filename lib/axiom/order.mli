(** Incremental acyclicity maintenance over a fixed vertex set.

    The candidate-execution engines commit rf/co choices one edge at a
    time; each axiom is an acyclicity requirement, so the hot operation is
    "would adding this edge close a cycle?". This module keeps the exact
    transitive closure as per-vertex reachability bitsets — multi-word, so
    event graphs are no longer capped at one native int's worth of bits —
    making the probe O(words) and an accepted insertion O(n * words) word
    operations, instead of a fresh O(V+E) DFS per probe.

    Backtracking is trail-based: {!push} opens an undo scope in O(1) and
    {!pop} restores exactly the words touched since — an [add] that
    installs nothing (the edge was already implied) costs nothing to
    rewind. The seed behaviour (copy the whole store per snapshot) survives
    in the test oracle library, which this module is randomized-tested
    against. *)

type t

val max_vertices : int
(** 1024 — rows are multi-word bitsets; the seed's one-int limit
    ([Sys.int_size - 1] = 62 vertices) is gone. *)

val create : int -> t
(** An edgeless order on [n] vertices. Raises [Invalid_argument] beyond
    {!max_vertices}. *)

val add : t -> int -> int -> bool
(** [add t u v] inserts the edge [u -> v] and returns [true], or returns
    [false] — leaving the closure unchanged — when the edge would close a
    cycle (including [u = v]). *)

val reaches : t -> int -> int -> bool
(** [reaches t u v]: is there a nonempty path [u -> ... -> v]? *)

val push : t -> unit
(** Open a backtracking scope (a trail mark; O(1), no copying). *)

val pop : t -> unit
(** Rewind (and close) the most recent scope, restoring the closure
    bit-for-bit. Raises [Invalid_argument] with no open scope. *)

val rejections : t -> int
(** Insertions refused by the cycle check (monotonic). Kept for tests: the
    oracle's generate-and-prune statistics count them. *)
