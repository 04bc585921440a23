(** Deterministic pseudo-random number generation.

    All stochastic components of memrel draw randomness through this module
    so that every experiment is reproducible from a single integer seed. The
    generator is xoshiro256++ seeded via splitmix64, which is both fast and
    of far higher quality than the needs of Monte Carlo estimation here. *)

type t = private (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t
(** Mutable generator state: the four xoshiro256++ words [s0..s3] at
    indices [0..3]. The type is private: only this module creates
    generators, but a hot loop in another module (the settling kernel
    {!Memrel_settling.Scratch}) may coerce one to its Bigarray to load the
    words into locals once, step the generator inline and store them back
    once. {!bits64} is the
    single reference step, and every inlined copy of it must be pinned
    draw-for-draw against it by a test. *)

val create : int -> t
(** [create seed] builds a generator deterministically from [seed]. Equal
    seeds yield identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator with the same current state. *)

val split : t -> t
(** [split t] derives a new generator from [t], advancing [t]; the two
    subsequent streams are statistically independent. Used to hand each
    thread/replica of an experiment its own stream. *)

val substream : int64 -> int -> t
(** [substream base i] is the [i]-th substream of the entropy word [base]:
    a pure function of [(base, i)], so any party holding [base] can
    reconstruct stream [i] without consuming shared generator state.
    Distinct indices yield statistically independent streams (the index is
    diffused through splitmix64 before seeding). This is the keyed-chunk
    scheme of {!Par}: chunk [i] of a Monte Carlo run always draws from
    [substream base i], making results independent of how chunks are
    scheduled across domains. *)

val bits64 : t -> int64
(** [bits64 t] is the next raw 64-bit output: the reference xoshiro256++
    step. Called from another module it is a real call that loads and
    stores the four words and returns a boxed [int64]. *)

val int : t -> int -> int
(** [int t bound] is uniform on [0, bound). Raises [Invalid_argument] if
    [bound <= 0]. Uses rejection sampling, hence exactly uniform. *)

val float : t -> float
(** [float t] is uniform on [0, 1) with 53 bits of precision. *)

val bool : t -> bool
(** [bool t] is a fair coin. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val scale_probability : float -> int
(** [scale_probability p] is the integer threshold [ceil (p * 2^53)] such
    that {!bernoulli_scaled}[ t (scale_probability p)] draws the same word
    and returns the same verdict as {!bernoulli}[ t p] — exactly, not up to
    rounding (both comparisons scale by a power of two, which is exact).
    Precompute it once per probability so the hot loop passes an immediate
    int instead of boxing a float argument per draw. [p = 0] maps to
    threshold [0] (never true) and [p > 0] to a positive threshold, so
    [scale_probability p > 0] iff [p > 0.0]. Raises [Invalid_argument]
    outside [0, 1]. *)

val bernoulli_scaled : t -> int -> bool
(** [bernoulli_scaled t threshold] is {!bernoulli} with the probability
    pre-scaled by {!scale_probability}. Allocation-free. *)

val geometric_half : t -> int
(** [geometric_half t] samples the paper's shift distribution:
    [Pr[k] = 2^-(k+1)] for [k >= 0], i.e. the number of heads before the
    first tail of a fair coin. Sampled by counting leading coin flips, so no
    floating-point log is involved. *)

val geometric : t -> float -> int
(** [geometric t p] samples [Pr[k] = (1-p)^k p] for [k >= 0], the number of
    failures before the first success with success probability [p].
    Requires [0 < p <= 1]. *)

val shuffle_in_place : t -> 'a array -> unit
(** [shuffle_in_place t a] applies a uniform Fisher–Yates shuffle. *)
