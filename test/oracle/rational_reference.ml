(* The seed rational: naive cross-multiply-then-normalize over
   {!Bigint_reference}. The fast-path {!Memrel_prob.Rational} and the DPs
   instantiated over it are pinned against this module. *)

module B = Bigint_reference

type t = { n : B.t; d : B.t }

let make_norm n d =
  (* assumes d > 0 *)
  if B.is_zero n then { n = B.zero; d = B.one }
  else begin
    let g = B.gcd n d in
    if B.is_one g then { n; d } else { n = B.div n g; d = B.div d g }
  end

let make n d =
  match B.sign d with
  | 0 -> raise Division_by_zero
  | s when s > 0 -> make_norm n d
  | _ -> make_norm (B.neg n) (B.neg d)

let zero = { n = B.zero; d = B.one }
let one = { n = B.one; d = B.one }
let two = { n = B.two; d = B.one }
let half = { n = B.one; d = B.two }

let of_int i = { n = B.of_int i; d = B.one }
let of_ints a b = make (B.of_int a) (B.of_int b)

let add a b = make_norm (B.add (B.mul a.n b.d) (B.mul b.n a.d)) (B.mul a.d b.d)
let sub a b = make_norm (B.sub (B.mul a.n b.d) (B.mul b.n a.d)) (B.mul a.d b.d)
let mul a b = make_norm (B.mul a.n b.n) (B.mul a.d b.d)
let neg a = { a with n = B.neg a.n }
let abs a = { a with n = B.abs a.n }

let inv a =
  match B.sign a.n with
  | 0 -> raise Division_by_zero
  | s when s > 0 -> { n = a.d; d = a.n }
  | _ -> { n = B.neg a.d; d = B.neg a.n }

let div a b = mul a (inv b)

let mul_int a k = make_norm (B.mul_int a.n k) a.d
let add_int a k = add a (of_int k)

let pow x k =
  if k >= 0 then { n = B.pow x.n k; d = B.pow x.d k }
  else inv { n = B.pow x.n (-k); d = B.pow x.d (-k) }

let pow2 k = if k >= 0 then { n = B.pow2 k; d = B.one } else { n = B.one; d = B.pow2 (-k) }

let compare a b = B.compare (B.mul a.n b.d) (B.mul b.n a.d)
let equal a b = B.equal a.n b.n && B.equal a.d b.d
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b
let sign a = B.sign a.n
let is_zero a = B.is_zero a.n

let to_float t =
  if B.is_zero t.n then 0.0
  else begin
    let shift = B.num_bits t.d + 60 - B.num_bits (B.abs t.n) in
    let shift = if shift < 0 then 0 else shift in
    let q = B.div (B.shift_left t.n shift) t.d in
    B.to_float q *. Float.pow 2.0 (float_of_int (-shift))
  end

let of_float_dyadic f =
  if not (Float.is_finite f) then invalid_arg "Rational.of_float_dyadic: not finite";
  if f = 0.0 then zero else
  let m, e = Float.frexp f in
  let mi = Int64.of_float (m *. 0x1.0p53) in
  let n = B.of_string (Int64.to_string mi) in
  let k = e - 53 in
  if k >= 0 then { n = B.shift_left n k; d = B.one } else make n (B.pow2 (-k))

let to_string t =
  if B.is_one t.d then B.to_string t.n
  else B.to_string t.n ^ "/" ^ B.to_string t.d

let of_string s =
  match String.index_opt s '/' with
  | None -> { n = B.of_string s; d = B.one }
  | Some i ->
    make (B.of_string (String.sub s 0 i))
      (B.of_string (String.sub s (i + 1) (String.length s - i - 1)))

let sum l = List.fold_left add zero l
let product l = List.fold_left mul one l

let pp fmt t = Format.pp_print_string fmt (to_string t)
