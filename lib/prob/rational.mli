(** Exact rational arithmetic over {!Bigint}.

    Every closed-form constant in the paper (1/6, 7/54, 58/441, 2/21, 4/7,
    c(n) = 2 / prod (1 - 2^-i), the Theorem 5.1 permutation sum, ...) is a
    rational, and the whole point of reproducing a theory paper is to land on
    those constants exactly rather than to within float noise. Values are
    kept normalized: positive denominator, gcd(num, den) = 1.

    Addition and multiplication use the Knuth 4.5.1 reductions (gcd of the
    denominators before cross-multiplying, cross-gcds before multiplying),
    which keep intermediates at canonical size instead of gcd-ing full-width
    products after the fact, the seed behaviour (kept as an oracle in
    [test/oracle]). *)

type t
(** A normalized rational number. *)

val zero : t
val one : t
val two : t
val half : t

val make : Bigint.t -> Bigint.t -> t
(** [make num den] is [num/den], normalized.
    Raises [Division_by_zero] if [den] is zero. *)

val of_int : int -> t

val of_ints : int -> int -> t
(** [of_ints a b] is the rational [a/b]. *)

val of_bigint : Bigint.t -> t

val num : t -> Bigint.t
(** Numerator (sign-carrying). *)

val den : t -> Bigint.t
(** Denominator (always positive). *)

val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val div : t -> t -> t
val neg : t -> t
val abs : t -> t
val inv : t -> t
(** Raises [Division_by_zero] on [inv zero]. *)

val mul_int : t -> int -> t
val add_int : t -> int -> t

val pow : t -> int -> t
(** [pow x k] for any integer [k] (negative exponents invert; [pow zero k]
    with [k < 0] raises [Division_by_zero]). *)

val pow2 : int -> t
(** [pow2 k] is the rational [2^k], for any sign of [k]. Heavily used: the
    paper's probabilities are dyadic almost everywhere. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t
val sign : t -> int
val is_zero : t -> bool

val to_float : t -> float
(** Nearest float, via a 64-bit-safe scaled division. *)

val log2 : t -> float
(** [log2 t] is the base-2 logarithm of [t] ([neg_infinity] at zero), exact
    up to float rounding of the two bit lengths, so it stays finite where
    [to_float t] underflows: the scaling table's Pr[A] is 2^-2241 at n = 40
    (Theorem 6.3). Raises [Invalid_argument] on a negative [t]. *)

val of_float_dyadic : float -> t
(** [of_float_dyadic f] is the exact rational value of the float [f]
    (every finite float is a dyadic rational). Raises [Invalid_argument]
    on NaN or infinities. *)

val to_string : t -> string
(** ["num/den"], or just ["num"] when the denominator is 1. *)

val of_string : string -> t
(** Parses ["a/b"] or ["a"]. *)

val sum : t list -> t
val product : t list -> t

val pp : Format.formatter -> t -> unit

(** {1 Observability}

    Advisory counters (plain refs — see {!Bigint.stats} for the domain
    semantics). [add_coprime] / [mul_coprime] count operations where the
    Knuth reductions found nothing to cancel, i.e. where the classic
    formulas were already optimal. *)

type stats = {
  adds : int;  (** nonzero additions performed *)
  add_coprime : int;  (** additions with coprime denominators *)
  muls : int;  (** nonzero multiplications performed *)
  mul_coprime : int;  (** multiplications with both cross-gcds = 1 *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
