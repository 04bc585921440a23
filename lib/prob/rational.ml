module B = Bigint

type t = { n : B.t; d : B.t }

(* -- observability ----------------------------------------------------- *)

(* Same discipline as Bigint's counters: plain refs, advisory only. *)
type stats = {
  adds : int;
  add_coprime : int;
  muls : int;
  mul_coprime : int;
}

let c_adds = ref 0
let c_add_coprime = ref 0
let c_muls = ref 0
let c_mul_coprime = ref 0

let stats () =
  { adds = !c_adds; add_coprime = !c_add_coprime; muls = !c_muls; mul_coprime = !c_mul_coprime }

let reset_stats () =
  c_adds := 0;
  c_add_coprime := 0;
  c_muls := 0;
  c_mul_coprime := 0

(* -- construction ------------------------------------------------------ *)

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
let of_bigint n = { n; d = B.one }

let num t = t.n
let den t = t.d

(* -- Knuth 4.5.1 arithmetic -------------------------------------------- *)

(* Both operands are canonical (gcd(n,d) = 1, d > 0), which makes the
   classic reductions sound: for addition, gcd(t, (b/g1)*d) = gcd(t, g1)
   with g1 = gcd(b, d) and t = a*(d/g1) + c*(b/g1), so one small gcd
   replaces the seed's full-width gcd of the blown-up cross products; for
   multiplication the two cross-gcds cancel everything that could cancel,
   so the products below are already in lowest terms. In the paper's dyadic
   DPs the denominators are powers of two, so g1 is usually one of the
   denominators and the intermediates never leave the native-int range. *)

let add a b =
  if B.is_zero a.n then b
  else if B.is_zero b.n then a
  else begin
    incr c_adds;
    let g1 = B.gcd a.d b.d in
    if B.is_one g1 then begin
      incr c_add_coprime;
      { n = B.add (B.mul a.n b.d) (B.mul b.n a.d); d = B.mul a.d b.d }
    end
    else begin
      let bd = B.div a.d g1 and dd = B.div b.d g1 in
      let t = B.add (B.mul a.n dd) (B.mul b.n bd) in
      if B.is_zero t then zero
      else begin
        let g2 = B.gcd t g1 in
        if B.is_one g2 then { n = t; d = B.mul bd b.d }
        else { n = B.div t g2; d = B.mul bd (B.div b.d g2) }
      end
    end
  end

let neg a = { a with n = B.neg a.n }
let sub a b = add a (neg b)
let abs a = { a with n = B.abs a.n }

let mul a b =
  if B.is_zero a.n || B.is_zero b.n then zero
  else begin
    incr c_muls;
    let g1 = B.gcd a.n b.d and g2 = B.gcd b.n a.d in
    match (B.is_one g1, B.is_one g2) with
    | true, true ->
      incr c_mul_coprime;
      { n = B.mul a.n b.n; d = B.mul a.d b.d }
    | _ ->
      { n = B.mul (B.div a.n g1) (B.div b.n g2);
        d = B.mul (B.div a.d g2) (B.div b.d g1) }
  end

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
  (* Scale the numerator so the integer quotient retains ~60 bits of
     precision, then divide in float and undo the scaling. *)
  if B.is_zero t.n then 0.0
  else begin
    let shift = B.num_bits t.d + 60 - B.num_bits (B.abs t.n) in
    let shift = if shift < 0 then 0 else shift in
    let q = B.div (B.shift_left t.n shift) t.d in
    B.to_float q *. Float.pow 2.0 (float_of_int (-shift))
  end

(* bit length plus the log of the top 52 bits, so a value far below the
   float range (Pr[A] ~ 2^-2241 at n = 40) still has a finite log *)
let log2_bigint b =
  let log2f x = Float.log x /. Float.log 2.0 in
  let bits = B.num_bits b in
  if bits <= 52 then log2f (B.to_float b)
  else float_of_int (bits - 52) +. log2f (B.to_float (B.shift_right (B.abs b) (bits - 52)))

let log2 t =
  match sign t with
  | 0 -> Float.neg_infinity
  | s when s < 0 -> invalid_arg "Rational.log2: negative"
  | _ -> log2_bigint t.n -. log2_bigint t.d

let of_float_dyadic f =
  if not (Float.is_finite f) then invalid_arg "Rational.of_float_dyadic: not finite";
  if f = 0.0 then zero else
  let m, e = Float.frexp f in
  (* m in [0.5, 1); m * 2^53 is integral *)
  let mi = Int64.of_float (m *. 0x1.0p53) in
  let n = B.of_string (Int64.to_string mi) in
  let k = e - 53 in
  if k >= 0 then { n = B.shift_left n k; d = B.one } else make n (B.pow2 (-k))

let to_string t =
  if B.is_one t.d then B.to_string t.n
  else B.to_string t.n ^ "/" ^ B.to_string t.d

let of_string s =
  match String.index_opt s '/' with
  | None -> of_bigint (B.of_string s)
  | Some i ->
    make (B.of_string (String.sub s 0 i)) (B.of_string (String.sub s (i + 1) (String.length s - i - 1)))

let sum l = List.fold_left add zero l
let product l = List.fold_left mul one l

let pp fmt t = Format.pp_print_string fmt (to_string t)
