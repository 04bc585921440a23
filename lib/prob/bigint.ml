(* Two-variant representation with a native-int fast path.

   [Small v] holds every value whose magnitude fits a native int, i.e.
   |v| <= max_int (min_int itself is excluded so that [abs]/[neg] never
   overflow). [Big] is the seed sign-magnitude limb form (little-endian base
   2^15, no high zero limbs, sign <> 0), reached only when a checked native
   operation overflows.

   Canonicality invariant: every constructor demotes, so a [Big] value
   ALWAYS has a magnitude of at least 63 bits. Mixed-variant comparison and
   division shortcuts, and structural equality of the representation,
   all rely on this invariant. *)

let base_bits = 15
let base = 1 lsl base_bits
let base_mask = base - 1

type big = { sign : int; mag : int array }
type t = Small of int | Big of big

(* -- observability counters -------------------------------------------- *)

(* Plain (non-atomic) counters: an increment is a single word store, so
   concurrent domains may lose counts but can never tear a value. The
   numbers are advisory throughput telemetry, not part of any result. *)
type stats = {
  small_ops : int;
  big_ops : int;
  promotions : int;
  demotions : int;
}

let c_small = ref 0
let c_big = ref 0
let c_promote = ref 0
let c_demote = ref 0

let stats () =
  { small_ops = !c_small; big_ops = !c_big; promotions = !c_promote; demotions = !c_demote }

let reset_stats () =
  c_small := 0;
  c_big := 0;
  c_promote := 0;
  c_demote := 0

let small_hit_rate s =
  let total = s.small_ops + s.big_ops in
  if total = 0 then 1.0 else float_of_int s.small_ops /. float_of_int total

(* -- magnitude algorithms (shared with the reference implementation) --- *)

let normalize_mag mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do decr n done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

let cmp_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else begin
    let rec go i = if i < 0 then 0 else if a.(i) <> b.(i) then compare a.(i) b.(i) else go (i - 1) in
    go (la - 1)
  end

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let s = (if i < la then a.(i) else 0) + (if i < lb then b.(i) else 0) + !carry in
    r.(i) <- s land base_mask;
    carry := s lsr base_bits
  done;
  r

(* requires a >= b *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let d = a.(i) - (if i < lb then b.(i) else 0) - !borrow in
    if d < 0 then begin r.(i) <- d + base; borrow := 1 end
    else begin r.(i) <- d; borrow := 0 end
  done;
  assert (!borrow = 0);
  r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let ai = a.(i) in
      if ai <> 0 then begin
        let carry = ref 0 in
        for j = 0 to lb - 1 do
          let v = r.(i + j) + (ai * b.(j)) + !carry in
          r.(i + j) <- v land base_mask;
          carry := v lsr base_bits
        done;
        let k = ref (i + lb) in
        while !carry <> 0 do
          let v = r.(!k) + !carry in
          r.(!k) <- v land base_mask;
          carry := v lsr base_bits;
          incr k
        done
      end
    done;
    r
  end

let shift_left_mag a k =
  if Array.length a = 0 then [||]
  else begin
    let limb_shift = k / base_bits and bit_shift = k mod base_bits in
    let la = Array.length a in
    let r = Array.make (la + limb_shift + 1) 0 in
    for i = 0 to la - 1 do
      let v = a.(i) lsl bit_shift in
      r.(i + limb_shift) <- r.(i + limb_shift) lor (v land base_mask);
      r.(i + limb_shift + 1) <- r.(i + limb_shift + 1) lor (v lsr base_bits)
    done;
    r
  end

let shift_right_mag a k =
  let limb_shift = k / base_bits and bit_shift = k mod base_bits in
  let la = Array.length a in
  if limb_shift >= la then [||]
  else begin
    let lr = la - limb_shift in
    let r = Array.make lr 0 in
    for i = 0 to lr - 1 do
      let lo = a.(i + limb_shift) lsr bit_shift in
      let hi = if i + limb_shift + 1 < la then (a.(i + limb_shift + 1) lsl (base_bits - bit_shift)) land base_mask else 0 in
      r.(i) <- if bit_shift = 0 then a.(i + limb_shift) else lo lor hi
    done;
    r
  end

(* Binary long division on magnitudes. Magnitudes in this code base stay
   below a few thousand bits, so the O(bits * limbs) cost is irrelevant next
   to implementation transparency. *)
let divmod_mag u v =
  let bit u i = (u.((i / base_bits)) lsr (i mod base_bits)) land 1 in
  let nu = Array.length u * base_bits in
  let q = Array.make (Array.length u) 0 in
  let cap = Array.length v + 2 in
  let r = Array.make cap 0 in
  let rlen = ref 0 in
  let r_shift_or (b : int) =
    let carry = ref b in
    for i = 0 to !rlen - 1 do
      let v2 = (r.(i) lsl 1) lor !carry in
      r.(i) <- v2 land base_mask;
      carry := v2 lsr base_bits
    done;
    if !carry <> 0 then begin r.(!rlen) <- !carry; incr rlen end
  in
  let r_ge_v () =
    let lv = Array.length v in
    if !rlen <> lv then !rlen > lv
    else begin
      let rec go i = if i < 0 then true else if r.(i) <> v.(i) then r.(i) > v.(i) else go (i - 1) in
      go (lv - 1)
    end
  in
  let r_sub_v () =
    let borrow = ref 0 in
    let lv = Array.length v in
    for i = 0 to !rlen - 1 do
      let d = r.(i) - (if i < lv then v.(i) else 0) - !borrow in
      if d < 0 then begin r.(i) <- d + base; borrow := 1 end
      else begin r.(i) <- d; borrow := 0 end
    done;
    while !rlen > 0 && r.(!rlen - 1) = 0 do decr rlen done
  in
  for i = nu - 1 downto 0 do
    r_shift_or (bit u i);
    if r_ge_v () then begin
      r_sub_v ();
      q.(i / base_bits) <- q.(i / base_bits) lor (1 lsl (i mod base_bits))
    end
  done;
  (q, Array.sub r 0 !rlen)

let gcd_mag a b =
  (* Stein on magnitudes; both nonempty *)
  let trailing_zeros mag =
    let rec limb i = if mag.(i) = 0 then limb (i + 1) else i in
    let li = limb 0 in
    let v = mag.(li) in
    let rec bits b v = if v land 1 = 1 then b else bits (b + 1) (v lsr 1) in
    (li * base_bits) + bits 0 v
  in
  let za = trailing_zeros a and zb = trailing_zeros b in
  let shift = Stdlib.min za zb in
  let rec go a b =
    if Array.length b = 0 then a
    else begin
      let b = normalize_mag (shift_right_mag b (trailing_zeros b)) in
      if cmp_mag a b > 0 then go b (normalize_mag (sub_mag a b))
      else go a (normalize_mag (sub_mag b a))
    end
  in
  let a = normalize_mag (shift_right_mag a za) and b = normalize_mag (shift_right_mag b zb) in
  shift_left_mag (go a b) shift

(* -- representation plumbing ------------------------------------------- *)

let mag_bits mag =
  let n = Array.length mag in
  if n = 0 then 0
  else begin
    let top = mag.(n - 1) in
    let rec bits b v = if v = 0 then b else bits (b + 1) (v lsr 1) in
    ((n - 1) * base_bits) + bits 0 top
  end

let nbits_int v =
  (* bit length of a NONNEGATIVE native int *)
  let rec bits b v = if v = 0 then b else bits (b + 1) (v lsr 1) in
  bits 0 v

(* limb magnitude of a nonnegative Int64 (covers |min_int| = 2^62) *)
let mag_of_int64 v =
  let rec limbs acc v =
    if Int64.equal v 0L then acc
    else limbs (Int64.to_int (Int64.logand v (Int64.of_int base_mask)) :: acc)
           (Int64.shift_right_logical v base_bits)
  in
  Array.of_list (List.rev (limbs [] v))

let mag_of_small v = mag_of_int64 (Int64.abs (Int64.of_int v))

(* demoting Big constructor: the only way a Big value is ever built *)
let make_big sign mag =
  let mag = normalize_mag mag in
  let b = mag_bits mag in
  if b = 0 then Small 0
  else if b <= 62 then begin
    (* magnitude <= 2^62 - 1 = max_int: fits Small *)
    incr c_demote;
    let v = ref 0 in
    for i = Array.length mag - 1 downto 0 do
      v := (!v lsl base_bits) lor mag.(i)
    done;
    Small (sign * !v)
  end
  else Big { sign; mag }

(* exact promotion of an overflowed native sum: |v64| < 2^63 *)
let of_sum_int64 v64 =
  incr c_promote;
  let sign = if Int64.compare v64 0L < 0 then -1 else 1 in
  make_big sign (mag_of_int64 (Int64.abs v64))

let to_big = function
  | Small v ->
    let sign = if v > 0 then 1 else if v < 0 then -1 else 0 in
    { sign; mag = mag_of_small v }
  | Big b -> b

let zero = Small 0
let one = Small 1
let two = Small 2

let of_int n = if n = min_int then make_big (-1) (mag_of_small n) else Small n

let sign = function
  | Small v -> if v > 0 then 1 else if v < 0 then -1 else 0
  | Big b -> b.sign

let is_zero = function Small 0 -> true | _ -> false
let is_one = function Small 1 -> true | _ -> false

let num_bits = function
  | Small v -> nbits_int (abs v)
  | Big b -> mag_bits b.mag

(* -- arithmetic -------------------------------------------------------- *)

let big_add a b =
  incr c_big;
  let a = to_big a and b = to_big b in
  match (a.sign, b.sign) with
  | 0, _ -> make_big b.sign b.mag
  | _, 0 -> make_big a.sign a.mag
  | sa, sb when sa = sb -> make_big sa (add_mag a.mag b.mag)
  | sa, _ ->
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make_big sa (sub_mag a.mag b.mag)
    else make_big (-sa) (sub_mag b.mag a.mag)

let add a b =
  match (a, b) with
  | Small x, Small y ->
    let s = x + y in
    if (x lxor s) land (y lxor s) < 0 || s = min_int then
      of_sum_int64 (Int64.add (Int64.of_int x) (Int64.of_int y))
    else begin incr c_small; Small s end
  | _ -> big_add a b

let neg = function
  | Small v -> Small (-v)
  | Big b -> Big { b with sign = -b.sign }

let abs = function
  | Small v -> Small (abs v)
  | Big b -> if b.sign < 0 then Big { b with sign = 1 } else Big b

let sub a b =
  match (a, b) with
  | Small x, Small y ->
    let s = x - y in
    if (x lxor y) land (x lxor s) < 0 || s = min_int then
      of_sum_int64 (Int64.sub (Int64.of_int x) (Int64.of_int y))
    else begin incr c_small; Small s end
  | _ -> big_add a (neg b)

let big_mul a b =
  incr c_big;
  let a = to_big a and b = to_big b in
  if a.sign = 0 || b.sign = 0 then zero
  else make_big (a.sign * b.sign) (mul_mag a.mag b.mag)

let mul a b =
  match (a, b) with
  | Small 0, _ | _, Small 0 -> incr c_small; zero
  | Small x, Small y ->
    let p = x * y in
    (* the division check is complete: a wrapped product differs from the
       true one by k * 2^63, which always shifts the quotient; p = min_int
       is promoted before dividing so min_int / -1 is never evaluated *)
    if p = min_int || p / x <> y then begin
      incr c_promote;
      incr c_big;
      make_big ((if x > 0 then 1 else -1) * (if y > 0 then 1 else -1))
        (mul_mag (mag_of_small x) (mag_of_small y))
    end
    else begin incr c_small; Small p end
  | _ -> big_mul a b

let succ t = add t one
let pred t = sub t one

let mul_int t k = mul t (of_int k)

let compare a b =
  match (a, b) with
  | Small x, Small y -> Stdlib.compare x y
  | Small _, Big b -> if b.sign > 0 then -1 else 1
  | Big a, Small _ -> if a.sign > 0 then 1 else -1
  | Big a, Big b ->
    if a.sign <> b.sign then Stdlib.compare a.sign b.sign
    else if a.sign >= 0 then cmp_mag a.mag b.mag
    else cmp_mag b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let shift_left t k =
  if k = 0 then t
  else
    match t with
    | Small 0 -> zero
    | Small v ->
      if nbits_int (Stdlib.abs v) + k <= 62 then begin incr c_small; Small (v lsl k) end
      else begin
        incr c_promote;
        incr c_big;
        make_big (if v > 0 then 1 else -1) (shift_left_mag (mag_of_small v) k)
      end
    | Big b ->
      incr c_big;
      make_big b.sign (shift_left_mag b.mag k)

let shift_right t k =
  if k = 0 then t
  else
    match t with
    | Small v ->
      incr c_small;
      let m = Stdlib.abs v in
      let r = if k > 62 then 0 else m lsr k in
      Small (if v < 0 then -r else r)
    | Big b ->
      incr c_big;
      make_big b.sign (shift_right_mag b.mag k)

let pow2 k = shift_left one k

let divmod a b =
  match (a, b) with
  | _, Small 0 -> raise Division_by_zero
  | Small x, Small y -> incr c_small; (Small (x / y), Small (x mod y))
  | Small _, Big _ ->
    (* canonical Big magnitudes exceed every Small magnitude *)
    incr c_small;
    (zero, a)
  | _ ->
    incr c_big;
    let ab = to_big a and bb = to_big b in
    if bb.sign = 0 then raise Division_by_zero
    else if ab.sign = 0 then (zero, zero)
    else if cmp_mag ab.mag bb.mag < 0 then (zero, a)
    else begin
      let qm, rm = divmod_mag ab.mag bb.mag in
      (make_big (ab.sign * bb.sign) qm, make_big ab.sign rm)
    end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let pow b e =
  if e < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc b e =
    if e = 0 then acc
    else if e land 1 = 1 then go (mul acc b) (mul b b) (e lsr 1)
    else go acc (mul b b) (e lsr 1)
  in
  go one b e

(* binary gcd on nonnegative native ints *)
let int_gcd a b =
  if a = 0 then b
  else if b = 0 then a
  else begin
    let ctz v =
      let rec go n v = if v land 1 = 1 then n else go (n + 1) (v lsr 1) in
      go 0 v
    in
    let za = ctz a and zb = ctz b in
    let k = if za < zb then za else zb in
    let a = ref (a lsr za) and b = ref (b lsr zb) in
    while !b <> 0 do
      if !a > !b then begin
        let t = !a in
        a := !b;
        b := t
      end;
      b := !b - !a;
      if !b <> 0 then b := !b lsr ctz !b
    done;
    !a lsl k
  end

let gcd a b =
  match (a, b) with
  | Small x, Small y -> incr c_small; Small (int_gcd (Stdlib.abs x) (Stdlib.abs y))
  | _ ->
    incr c_big;
    let ab = to_big a and bb = to_big b in
    if ab.sign = 0 then abs b
    else if bb.sign = 0 then abs a
    else make_big 1 (gcd_mag ab.mag bb.mag)

(* -- conversions ------------------------------------------------------- *)

let to_int_opt = function
  | Small v -> Some v
  (* canonical Big values need at least 63 magnitude bits, which the seed
     conversion also rejects (it requires num_bits <= 62) *)
  | Big _ -> None

let to_int t =
  match to_int_opt t with
  | Some n -> n
  | None -> failwith "Bigint.to_int: does not fit in a native int"

let to_float = function
  | Small v -> float_of_int v
  | Big b ->
    let v = ref 0.0 in
    let fbase = float_of_int base in
    for i = Array.length b.mag - 1 downto 0 do
      v := (!v *. fbase) +. float_of_int b.mag.(i)
    done;
    float_of_int b.sign *. !v

(* divide magnitude by a small positive int, returning quotient mag and int
   remainder; used by decimal conversion. *)
let divmod_small_mag mag m =
  let l = Array.length mag in
  let q = Array.make l 0 in
  let r = ref 0 in
  for i = l - 1 downto 0 do
    let cur = (!r lsl base_bits) lor mag.(i) in
    q.(i) <- cur / m;
    r := cur mod m
  done;
  (q, !r)

let to_string = function
  | Small v -> string_of_int v
  | Big b ->
    let chunks = ref [] in
    let mag = ref b.mag in
    while Array.length (normalize_mag !mag) > 0 do
      let q, r = divmod_small_mag !mag 1_000_000_000 in
      chunks := r :: !chunks;
      mag := normalize_mag q
    done;
    let buf = Buffer.create 32 in
    if b.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start = match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0) in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  for i = start to len - 1 do
    if s.[i] < '0' || s.[i] > '9' then invalid_arg "Bigint.of_string: invalid digit"
  done;
  let digits = len - start in
  if digits <= 18 then
    (* up to 10^18 - 1 < 2^62: parses natively and needs no demotion check *)
    Small (sign * int_of_string (String.sub s start digits))
  else begin
    let acc = ref zero in
    let ten9 = of_int 1_000_000_000 in
    let i = ref start in
    while !i < len do
      let chunk_len = Stdlib.min 9 (len - !i) in
      let chunk = String.sub s !i chunk_len in
      let mult = if chunk_len = 9 then ten9 else pow (of_int 10) chunk_len in
      acc := add (mul !acc mult) (of_int (int_of_string chunk));
      i := !i + chunk_len
    done;
    if sign < 0 then neg !acc else !acc
  end

let pp fmt t = Format.pp_print_string fmt (to_string t)
