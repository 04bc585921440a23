(** Arbitrary-precision signed integers with a native-int fast path.

    The container is sealed (no zarith), and the paper's exact constants
    (7/54, 58/441, c(n), truncated series with denominators like
    [2^(mu q)] ...) overflow native integers immediately, so memrel carries
    its own bignum. The representation is two-variant: values whose
    magnitude fits a native [int] are carried unboxed ([Small]), and
    overflow-checked native operations promote to the sign-magnitude limb
    form ([Big]) only when they must; every constructor demotes back to
    [Small] whenever the result fits, so the representation is canonical.
    Schoolbook algorithms on the limb form: magnitudes in this project stay
    small (at most a few thousand bits), so asymptotically fancy
    multiplication would be wasted complexity.

    The pre-fast-path seed implementation lives in the test oracle library
    ([test/oracle]), which pins this one against it operation by
    operation. *)

type t
(** An immutable arbitrary-precision integer. *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** [of_int n] converts a native integer exactly. *)

val to_int : t -> int
(** [to_int t] converts back to a native integer.
    Raises [Failure] if [t] does not fit. *)

val to_int_opt : t -> int option
(** [to_int_opt t] is [Some n] when [t] fits in a native integer. Kept for
    tests of the fixnum boundary against the seed implementation. *)

val to_float : t -> float
(** [to_float t] is the nearest(ish) float; intended for display and for
    seeding float-domain computations, not for exactness. *)

val of_string : string -> t
(** [of_string s] parses an optionally-signed decimal numeral.
    Raises [Invalid_argument] on malformed input. *)

val to_string : t -> string
(** [to_string t] is the decimal numeral of [t]. *)

val sign : t -> int
(** [sign t] is [-1], [0] or [1]. *)

val is_zero : t -> bool
val is_one : t -> bool

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

val div : t -> t -> t
val rem : t -> t -> t
(** [div a b] and [rem a b] are [q] and [r] with [a = q*b + r], truncated
    division (quotient rounded toward zero, [r] has the sign of [a],
    [|r| < |b|]). Raise [Division_by_zero] if [b] is zero. *)

val mul_int : t -> int -> t
(** [mul_int t k] multiplies by a native integer. *)

val pow : t -> int -> t
(** [pow b e] is [b^e]. Raises [Invalid_argument] for negative [e]. *)

val pow2 : int -> t
(** [pow2 k] is [2^k] for [k >= 0]. *)

val shift_left : t -> int -> t
(** [shift_left t k] is [t * 2^k]. *)

val shift_right : t -> int -> t
(** [shift_right t k] is [t / 2^k] for nonnegative [t] (arithmetic shift of
    the magnitude; truncates toward zero for negatives). *)

val gcd : t -> t -> t
(** [gcd a b] is the nonnegative greatest common divisor (binary/Stein
    algorithm — no division, so it is the cheap path rationals rely on;
    native binary gcd when both operands fit an [int]). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val num_bits : t -> int
(** [num_bits t] is the bit length of the magnitude ([num_bits zero = 0]). *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer (decimal). *)

(** {1 Observability}

    Advisory throughput telemetry for the fast path. The counters are plain
    (non-atomic) refs: increments from concurrent domains may be lost but
    never torn, and the numbers feed dashboards/benches only — no result
    depends on them. *)

type stats = {
  small_ops : int;  (** operations completed entirely on the native path *)
  big_ops : int;  (** operations that touched the limb representation *)
  promotions : int;  (** native results that overflowed into [Big] *)
  demotions : int;  (** limb results that collapsed back into [Small] *)
}

val stats : unit -> stats
val reset_stats : unit -> unit

val small_hit_rate : stats -> float
(** Fraction of operations that stayed on the native path ([1.0] when no
    operations were counted). *)
