let geometric_half_pmf k = if k < 0 then 0.0 else Float.pow 2.0 (float_of_int (-(k + 1)))
let geometric_half_pmf_q k = if k < 0 then Rational.zero else Rational.pow2 (-(k + 1))
let geometric_half_sf k = if k <= 0 then 1.0 else Float.pow 2.0 (float_of_int (-k))
let geometric_pmf ~p k = if k < 0 then 0.0 else (Float.pow (1.0 -. p) (float_of_int k)) *. p

let sample_geometric_half = Rng.geometric_half

let sample_categorical rng weights =
  let total = Array.fold_left ( +. ) 0.0 weights in
  if not (total > 0.0) then invalid_arg "Dist.sample_categorical: weights must have positive sum";
  let u = Rng.float rng *. total in
  let n = Array.length weights in
  let rec go i acc =
    if i = n - 1 then i
    else begin
      let acc = acc +. weights.(i) in
      if u < acc then i else go (i + 1) acc
    end
  in
  go 0 0.0

(* Precomputed cumulative table: [cum.(i)] is the scan's running prefix sum
   after weight [i], built by the same left-to-right float summation as
   [sample_categorical], so a binary search over it lands on exactly the
   index the linear scan returns for the same uniform draw. *)
type categorical = { cum : float array }

let categorical weights =
  let n = Array.length weights in
  if n = 0 then invalid_arg "Dist.categorical: weights must be nonempty";
  let cum = Array.make n 0.0 in
  let acc = ref 0.0 in
  for i = 0 to n - 1 do
    let w = weights.(i) in
    if not (w >= 0.0) then invalid_arg "Dist.categorical: negative weight";
    acc := !acc +. w;
    cum.(i) <- !acc
  done;
  if not (!acc > 0.0) then invalid_arg "Dist.categorical: weights must have positive sum";
  { cum }

let sample_categorical_table { cum } rng =
  let n = Array.length cum in
  let u = Rng.float rng *. cum.(n - 1) in
  (* smallest i with u < cum.(i), clamped to n - 1: the scan's answer *)
  let lo = ref 0 and hi = ref (n - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if u < Array.unsafe_get cum mid then hi := mid else lo := mid + 1
  done;
  !lo

type 'a pmf = ('a * Rational.t) list

let pmf_total pmf = Rational.sum (List.map snd pmf)

let pmf_normalize pmf =
  let t = pmf_total pmf in
  if Rational.is_zero t then invalid_arg "Dist.pmf_normalize: zero total mass";
  List.map (fun (v, p) -> (v, Rational.div p t)) pmf

let pmf_expect pmf f =
  Rational.sum (List.map (fun (v, p) -> Rational.mul (f v) p) pmf)

let pmf_merge pmf =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (v, p) ->
      match Hashtbl.find_opt tbl v with
      | None ->
        Hashtbl.add tbl v p;
        order := v :: !order
      | Some q -> Hashtbl.replace tbl v (Rational.add p q))
    pmf;
  List.rev_map (fun v -> (v, Hashtbl.find tbl v)) !order
