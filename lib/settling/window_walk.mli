(** The transitions of the finite-m window DP, written once: {!Exact_dp}
    (floats) and {!Exact_dp_q} (rationals) both sit on this walk. It is
    integer-only: it emits each transition as array indices, and each scalar
    supplies one multiply-add closure over its own arrays. Without flambda,
    a DP written as a functor over the scalar boxes every float it touches.

    A sequence is a bit mask: bit j is the kind at position j, position 0
    being the top; ST = 1, LD = 0. A settling instruction's probability
    depends only on its kind, how many STs and LDs it passed, and what
    stopped it (the top, an LD or an ST), so a transition carries an index
    into an O(m^2) weight table built once per call. A climb ends at the
    first pair whose swap probability is zero. *)

type 'a weights = {
  m : int;  (** Prefix length. *)
  can_pass : bool array;  (** rho(earlier, later) > 0, at [earlier * 2 + later]. *)
  settle : 'a array;  (** Prefix stage: the draw's probability times the climb's. *)
  pair : 'a array;  (** Critical pair: the climb's probability. *)
}

val weights :
  one:'a -> sub:('a -> 'a -> 'a) -> mul:('a -> 'a -> 'a) -> is_zero:('a -> bool) -> p:'a ->
  (int -> int -> 'a) -> int -> 'a weights
(** [weights ~one ~sub ~mul ~is_zero ~p rho m] for prefix length [m], with
    [rho earlier later] the swap probability and [p] the ST probability. *)

val settle_round : 'a weights -> int -> (int -> int -> int -> unit) -> unit
(** [settle_round w len emit] gives every sequence of length [len] a fresh
    instruction of each kind at its bottom: [emit source target i] for each
    place it can stop, [i] indexing [w.settle]. *)

val pair : 'a weights -> (int -> int -> int -> int -> unit) -> unit
(** [pair w emit] settles the critical LD, then the critical ST, below each
    sequence of length [w.m]: [emit mask gamma a b] for each pair of stops,
    [a] and [b] indexing [w.pair] for the LD and the ST. *)
