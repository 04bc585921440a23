(** Shared signatures for the exact-arithmetic substrate.

    [SCALAR] is the field structure the exact DPs of [lib/settling] compute
    in; floats satisfy it as well as both rationals, so the joint DP's
    coupled chains ({!Memrel_settling.Joint_dp_q.Make}) are one body with a
    float and a rational instance. [RATIONAL] extends it with the exact
    operations the rational-only consumers in [lib/settling] and
    [lib/shift] need; they are functorized over it so the bench harness can
    instantiate each one twice — over the fast-path {!Rational} and over the
    seed rationals kept in the test oracle library — and measure a
    like-for-like speedup in a single process. Neither signature carries
    [Bigint.t]-typed members, so both rational implementations (which sit
    on different bignum types) satisfy them as-is. *)

module type SCALAR = sig
  type t

  val zero : t
  val one : t
  val half : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t

  val pow : t -> int -> t
  (** [pow x n] for [n >= 0]. *)

  val pow2 : int -> t
  (** [pow2 n] is 2^n, for any integer [n]. *)

  val compare : t -> t -> int
  val is_zero : t -> bool
end

module type RATIONAL = sig
  include SCALAR

  val two : t

  val of_int : int -> t
  val of_ints : int -> int -> t
  val of_string : string -> t

  val of_float_dyadic : float -> t
  (** The exact rational value of a finite float. *)

  val to_string : t -> string
  val to_float : t -> float

  val div : t -> t -> t
  val neg : t -> t
  val abs : t -> t
  val inv : t -> t
  val mul_int : t -> int -> t
  val add_int : t -> int -> t

  val equal : t -> t -> bool
  val min : t -> t -> t
  val max : t -> t -> t
  val sign : t -> int

  val sum : t list -> t
  val product : t list -> t

  val pp : Format.formatter -> t -> unit
end
