(** Preallocated-scratch settling kernel — the zero-allocation fast path
    under {!Mc} (and the joined model's estimators).

    A [t] holds everything one worker needs to draw settled programs
    forever: the generated program as an int-coded array, its codes in
    settled order, and the model's swap probabilities pre-scaled into the
    integer-threshold form of {!Memrel_prob.Rng.bernoulli_scaled}. One trial
    ([generate] + [settle]) performs no heap allocation at all in steady
    state — guarded by `Gc.minor_words` regression tests.

    Draw-stream contract: for the same generator state, [generate] consumes
    exactly the Bernoulli sequence of {!Program.generate_with_gap} and
    [settle] exactly that of {!Settle.run} on the same program (a draw
    happens iff the swap probability is positive, with bit-identical
    verdicts — see {!Memrel_prob.Rng.scale_probability}). Hence estimators
    built on this kernel return results bit-identical to the closure-based
    oracle in the test suite; the differential tests pin this.

    The generator is fused into the kernel: [generate] and [settle] each
    load the generator's four words once, step them inline (a textual copy
    of {!Memrel_prob.Rng.bits64}) and store them back once, leaving the
    generator exactly where the same draws through {!Memrel_prob.Rng}
    would. Between calls the generator may be used freely.

    Only fence-free generated programs are representable here; programs
    with fences (e.g. {!Program.with_fences}) take the {!Settle.run}
    path. *)

type t
(** Mutable per-worker scratch. Not thread-safe: one [t] per domain. *)

val create : ?p:float -> ?gap:int -> m:int -> Memrel_memmodel.Model.t -> t
(** [create ~m model] sizes the scratch for programs of [m] plain prefix
    ops, [gap] plain ops inside the critical section (default 0), and ST
    probability [p] (default 0.5). Raises [Invalid_argument] as
    {!Program.generate_with_gap} would. *)

val identity : ?p:float -> ?gap:int -> m:int -> Memrel_memmodel.Model.t -> string
(** Every parameter that shapes the kernel's draws (model name and swap
    matrix, [p], [m], [gap]) as one string: the estimators fold it into
    their checkpoint identity, so a snapshot only resumes the same trial
    function. *)

val generate : t -> Memrel_prob.Rng.t -> unit
(** Draw a fresh program into the scratch. *)

val settle : t -> Memrel_prob.Rng.t -> unit
(** Settle the current program and record the critical pair's settled
    positions. The program itself is kept, so settling it again draws a
    fresh, independent settled order (the joint estimators' shape). *)

val load_pos : t -> int
(** Settled position of the critical load (after [settle]). *)

val store_pos : t -> int
(** Settled position of the critical store (after [settle]). *)

val gamma : t -> int
(** Window growth [store_pos - load_pos - 1] (after [settle]). *)

val sample_gamma : t -> Memrel_prob.Rng.t -> int
(** [generate] + [settle] + [gamma]: one full trial. *)
