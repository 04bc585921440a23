type t = float (* base-2 logarithm; neg_infinity encodes zero *)

let zero = Float.neg_infinity
let one = 0.0

let log2f x = Float.log x /. Float.log 2.0

let of_float f =
  if f < 0.0 then invalid_arg "Logspace.of_float: negative";
  if f = 0.0 then zero else log2f f

let to_float l = if l = Float.neg_infinity then 0.0 else Float.pow 2.0 l
let log2 l = l

let mul a b = if a = Float.neg_infinity || b = Float.neg_infinity then Float.neg_infinity else a +. b

let div a b =
  if b = Float.neg_infinity then invalid_arg "Logspace.div: division by zero";
  if a = Float.neg_infinity then a else a -. b

let add a b =
  if a = Float.neg_infinity then b
  else if b = Float.neg_infinity then a
  else begin
    let hi = Float.max a b and lo = Float.min a b in
    hi +. log2f (1.0 +. Float.pow 2.0 (lo -. hi))
  end

let sub a b =
  if b = Float.neg_infinity then a
  else if a < b then invalid_arg "Logspace.sub: result would be negative"
  else if a = b then zero
  else a +. log2f (1.0 -. Float.pow 2.0 (b -. a))

let pow a e = if a = Float.neg_infinity then (if e = 0.0 then one else zero) else a *. e
let pow2 e = e

let log2_bigint b =
  (* bit length plus the fractional log of the top 52 bits *)
  let bits = Bigint.num_bits b in
  if bits = 0 then Float.neg_infinity
  else if bits <= 52 then log2f (Bigint.to_float b)
  else begin
    let top = Bigint.shift_right (Bigint.abs b) (bits - 52) in
    float_of_int (bits - 52) +. log2f (Bigint.to_float top)
  end

let of_rational r =
  match Rational.sign r with
  | 0 -> zero
  | s when s < 0 -> invalid_arg "Logspace.of_rational: negative"
  | _ -> log2_bigint (Rational.num r) -. log2_bigint (Rational.den r)

let compare = Float.compare
let sum l = List.fold_left add zero l
let pp fmt l = Format.fprintf fmt "2^%.4f" l
