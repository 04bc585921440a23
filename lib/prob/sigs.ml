(** Shared signatures for the exact-arithmetic substrate.

    The exact DP consumers in [lib/settling] and [lib/shift] are functorized
    over [RATIONAL] so the bench harness can instantiate each one twice — over
    the fast-path {!Rational} and over the seed rationals kept in the test
    oracle library — and measure a like-for-like speedup in a single
    process. The signature deliberately
    carries no [Bigint.t]-typed members so both implementations (which sit on
    different bignum types) satisfy it as-is. *)

module type RATIONAL = sig
  type t

  val zero : t
  val one : t
  val two : t
  val half : t

  val of_int : int -> t
  val of_ints : int -> int -> t
  val of_string : string -> t

  val of_float_dyadic : float -> t
  (** The exact rational value of a finite float. *)

  val to_string : t -> string
  val to_float : t -> float

  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val abs : t -> t
  val inv : t -> t
  val mul_int : t -> int -> t
  val add_int : t -> int -> t
  val pow : t -> int -> t
  val pow2 : int -> t

  val compare : t -> t -> int
  val equal : t -> t -> bool
  val min : t -> t -> t
  val max : t -> t -> t
  val sign : t -> int
  val is_zero : t -> bool

  val sum : t list -> t
  val product : t list -> t

  val pp : Format.formatter -> t -> unit
end
