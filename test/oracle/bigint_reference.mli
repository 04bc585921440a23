(** The seed arbitrary-precision integer implementation, kept alive as the
    differential-testing and benchmarking baseline.

    {!Memrel_prob.Bigint} carries the production representation (a
    native-int fast path over these same limb algorithms); this module is
    the original always-allocating sign-magnitude form, so randomized
    differential tests can pin the fast path against it operation by
    operation, and the [--json exact] bench can time both. *)

type t
(** An immutable arbitrary-precision integer. *)

val zero : t
val one : t
val two : t
val minus_one : t

val of_int : int -> t
(** [of_int n] converts a native integer exactly. *)

val to_int : t -> int
(** [to_int t] converts back to a native integer.
    Raises [Failure] if [t] does not fit. *)

val to_int_opt : t -> int option
(** [to_int_opt t] is [Some n] when [t] fits in a native integer. *)

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

val divmod : t -> t -> t * t
(** [divmod a b] is [(q, r)] with [a = q*b + r], truncated division
    (quotient rounded toward zero, [r] has the sign of [a], [|r| < |b|]).
    Raises [Division_by_zero] if [b] is zero. *)

val div : t -> t -> t
val rem : t -> t -> t

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
    algorithm — no division, so it is the cheap path rationals rely on). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val num_bits : t -> int
(** [num_bits t] is the bit length of the magnitude ([num_bits zero = 0]). *)

val pp : Format.formatter -> t -> unit
(** Pretty-printer (decimal). *)
