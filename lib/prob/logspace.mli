(** Probabilities carried as base-2 logarithms.

    Theorem 6.3 says Pr[A] = 2^(-n^2 (3/2 + o(1))): at n = 30 that is
    2^-1350, far below float underflow. The scaling curves therefore compute
    in log2-space. The paper's exponents are naturally base 2, so log2 keeps
    every displayed number legible. *)

type t
(** A nonnegative extended-real probability-like quantity, stored as its
    base-2 logarithm ([zero] is -infinity). *)

val zero : t
val one : t

val of_float : float -> t
(** Requires a nonnegative argument. *)

val to_float : t -> float
(** Underflows to [0.] gracefully for very small values. *)

val log2 : t -> float
(** [log2 t] retrieves the stored exponent ([neg_infinity] for zero). *)

val mul : t -> t -> t
val div : t -> t -> t
val add : t -> t -> t
(** Log-sum-exp in base 2; exact to float precision. *)

val sub : t -> t -> t
(** [sub a b] requires [a >= b]; clamps tiny negative residue to zero. *)

val pow : t -> float -> t
val pow2 : float -> t
(** [pow2 e] is [2^e]. *)

val of_rational : Rational.t -> t
(** Requires a nonnegative rational; exact up to float rounding of the two
    bit-lengths, so it works for rationals whose float value underflows. *)

val compare : t -> t -> int
val sum : t list -> t
val pp : Format.formatter -> t -> unit
(** Prints as ["2^e"]. *)
