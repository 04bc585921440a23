(* The seed (pre-fast-path) bignum, kept verbatim as the differential-testing
   and benchmarking baseline for {!Memrel_prob.Bigint}: every operand is a heap-allocated
   sign-magnitude limb array, with no native-int shortcut anywhere.

   Sign-magnitude representation. [mag] is little-endian in base 2^15 with no
   high zero limbs; [sign] is 0 exactly when [mag] is empty. Base 2^15 keeps
   every intermediate product comfortably inside a 63-bit native int. *)

let base_bits = 15
let base = 1 lsl base_bits
let base_mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

let normalize_mag mag =
  let n = ref (Array.length mag) in
  while !n > 0 && mag.(!n - 1) = 0 do decr n done;
  if !n = Array.length mag then mag else Array.sub mag 0 !n

let make sign mag =
  let mag = normalize_mag mag in
  if Array.length mag = 0 then zero else { sign; mag }

let of_int n =
  if n = 0 then zero
  else begin
    let sign = if n > 0 then 1 else -1 in
    (* min_int negation is safe here because we accumulate via abs on each
       limb extraction using the sign-aware remainder *)
    let rec limbs acc n = if n = 0 then acc else limbs ((n land base_mask) :: acc) (n lsr base_bits) in
    let m = abs n in
    let l = List.rev (limbs [] m) in
    { sign; mag = Array.of_list l }
  end

let one = of_int 1
let two = of_int 2
let minus_one = of_int (-1)

let sign t = t.sign
let is_zero t = t.sign = 0
let is_one t = t.sign = 1 && Array.length t.mag = 1 && t.mag.(0) = 1

let num_bits t =
  let n = Array.length t.mag in
  if n = 0 then 0
  else begin
    let top = t.mag.(n - 1) in
    let rec bits b v = if v = 0 then b else bits (b + 1) (v lsr 1) in
    ((n - 1) * base_bits) + bits 0 top
  end

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

let add a b =
  match (a.sign, b.sign) with
  | 0, _ -> b
  | _, 0 -> a
  | sa, sb when sa = sb -> make sa (add_mag a.mag b.mag)
  | sa, _ ->
    let c = cmp_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make sa (sub_mag a.mag b.mag)
    else make (-sa) (sub_mag b.mag a.mag)

let neg t = if t.sign = 0 then t else { t with sign = -t.sign }
let sub a b = add a (neg b)
let abs t = if t.sign < 0 then { t with sign = 1 } else t

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else make (a.sign * b.sign) (mul_mag a.mag b.mag)

let succ t = add t one
let pred t = sub t one

let mul_int t k = mul t (of_int k)

let compare a b =
  if a.sign <> b.sign then Stdlib.compare a.sign b.sign
  else if a.sign >= 0 then cmp_mag a.mag b.mag
  else cmp_mag b.mag a.mag

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let shift_left t k = if t.sign = 0 || k = 0 then t else make t.sign (shift_left_mag t.mag k)
let shift_right t k = if t.sign = 0 || k = 0 then t else make t.sign (shift_right_mag t.mag k)

let pow2 k = shift_left one k

(* Binary long division on magnitudes. Magnitudes in this code base stay
   below a few thousand bits, so the O(bits * limbs) cost is irrelevant next
   to implementation transparency. *)
let divmod_mag u v =
  let bit u i = (u.((i / base_bits)) lsr (i mod base_bits)) land 1 in
  let nu = Array.length u * base_bits in
  let q = Array.make (Array.length u) 0 in
  (* remainder as a mutable magnitude with capacity of v plus one limb *)
  let cap = Array.length v + 2 in
  let r = Array.make cap 0 in
  let rlen = ref 0 in
  let r_shift_or (b : int) =
    (* r := r*2 + b *)
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

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else if cmp_mag a.mag b.mag < 0 then (zero, a)
  else begin
    let qm, rm = divmod_mag a.mag b.mag in
    let q = make (a.sign * b.sign) qm in
    let r = make a.sign rm in
    (q, r)
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

(* Stein's binary gcd: shift/subtract only, much cheaper than Euclid with our
   bit-serial division. *)
let gcd a b =
  let a = abs a and b = abs b in
  if is_zero a then b
  else if is_zero b then a
  else begin
    let trailing_zeros t =
      let rec limb i = if t.mag.(i) = 0 then limb (i + 1) else i in
      let li = limb 0 in
      let v = t.mag.(li) in
      let rec bits b v = if v land 1 = 1 then b else bits (b + 1) (v lsr 1) in
      (li * base_bits) + bits 0 v
    in
    let za = trailing_zeros a and zb = trailing_zeros b in
    let shift = Stdlib.min za zb in
    let rec go a b =
      (* invariants: a odd, b odd (after reduction), both positive *)
      if is_zero b then a
      else begin
        let b = shift_right b (trailing_zeros b) in
        if compare a b > 0 then go b (sub a b) else go a (sub b a)
      end
    in
    let a = shift_right a za and b = shift_right b zb in
    shift_left (go a b) shift
  end

let to_int_opt t =
  if t.sign = 0 then Some 0
  else if num_bits t > 62 then None
  else begin
    let v = ref 0 in
    for i = Array.length t.mag - 1 downto 0 do
      v := (!v lsl base_bits) lor t.mag.(i)
    done;
    Some (t.sign * !v)
  end

let to_int t =
  match to_int_opt t with
  | Some n -> n
  | None -> failwith "Bigint.to_int: does not fit in a native int"

let to_float t =
  let v = ref 0.0 in
  let b = float_of_int base in
  for i = Array.length t.mag - 1 downto 0 do
    v := (!v *. b) +. float_of_int t.mag.(i)
  done;
  float_of_int t.sign *. !v

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

let to_string t =
  if t.sign = 0 then "0"
  else begin
    let chunks = ref [] in
    let mag = ref t.mag in
    while Array.length (normalize_mag !mag) > 0 do
      let q, r = divmod_small_mag !mag 1_000_000_000 in
      chunks := r :: !chunks;
      mag := normalize_mag q
    done;
    let buf = Buffer.create 32 in
    if t.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let sign, start = match s.[0] with '-' -> (-1, 1) | '+' -> (1, 1) | _ -> (1, 0) in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let acc = ref zero in
  let ten9 = of_int 1_000_000_000 in
  let i = ref start in
  while !i < len do
    let chunk_len = Stdlib.min 9 (len - !i) in
    let chunk = String.sub s !i chunk_len in
    String.iter (fun c -> if c < '0' || c > '9' then invalid_arg "Bigint.of_string: invalid digit") chunk;
    let mult = if chunk_len = 9 then ten9 else pow (of_int 10) chunk_len in
    acc := add (mul !acc mult) (of_int (int_of_string chunk));
    i := !i + chunk_len
  done;
  if sign < 0 then neg !acc else !acc

let pp fmt t = Format.pp_print_string fmt (to_string t)
