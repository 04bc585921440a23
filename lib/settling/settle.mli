(** The settling process (Section 3.1.2 / Appendix A.2).

    Instructions are settled in initial-position order. Round [r] takes the
    instruction initially at position [r] (which, by induction, currently
    sits at position [r]) and repeatedly swaps it with the instruction
    directly above, each swap succeeding with the model's
    rho(earlier-kind, settling-kind); the round ends at the first failed
    swap or at position 0. Two special rules:

    - the critical store never passes the critical load (same location,
      footnote 2);
    - fences never settle, and a settling instruction passes a fence only if
      the fence allows upward passes (see {!Memrel_memmodel.Fence}), with
      the model's nominal [s] as the success probability. *)

type permutation = int array
(** [pi.(i)] is the final position of the instruction initially at [i] —
    the paper's pi. A valid permutation of [0 .. length-1]. *)

val run : Memrel_memmodel.Model.t -> Memrel_prob.Rng.t -> Program.t -> permutation
(** [run model rng prog] executes the full settling process and returns the
    final permutation. *)

type snapshot = {
  round : int;  (** the initial index just settled (0-based) *)
  start_pos : int;  (** position where the instruction began the round *)
  stop_pos : int;  (** position where it came to rest *)
  order : Memrel_memmodel.Op.t array;  (** full order after the round *)
}

val run_traced :
  Memrel_memmodel.Model.t ->
  Memrel_prob.Rng.t ->
  Program.t ->
  permutation * snapshot list
(** Like {!run} but also records a snapshot after every round — the data
    behind Figure 1. Snapshots are in round order. *)

val run_prefix :
  Memrel_memmodel.Model.t ->
  Memrel_prob.Rng.t ->
  Program.t ->
  rounds:int ->
  Memrel_memmodel.Op.t array
(** [run_prefix model rng prog ~rounds] runs only the first [rounds]
    settling rounds (settling initial indices [1 .. rounds]) and returns the
    resulting instruction order. Used to observe intermediate quantities
    like the paper's S_m — e.g. the L_mu event, which is defined before the
    critical pair settles — without paying for full snapshots. *)

val swap_probability :
  Memrel_memmodel.Model.t ->
  earlier:Memrel_memmodel.Op.t ->
  later:Memrel_memmodel.Op.t ->
  float
(** The effective per-swap success probability including the same-location
    and fence rules; exposed for the exact DP and for tests. *)

