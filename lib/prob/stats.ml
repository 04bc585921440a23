type summary = {
  count : int;
  mean : float;
  variance : float;
  std_dev : float;
  min : float;
  max : float;
}

type t = {
  mutable n : int;
  mutable mu : float;
  mutable m2 : float;
  mutable lo : float;
  mutable hi : float;
}

let create () = { n = 0; mu = 0.0; m2 = 0.0; lo = Float.infinity; hi = Float.neg_infinity }

let add t x =
  t.n <- t.n + 1;
  let delta = x -. t.mu in
  t.mu <- t.mu +. (delta /. float_of_int t.n);
  t.m2 <- t.m2 +. (delta *. (x -. t.mu));
  if x < t.lo then t.lo <- x;
  if x > t.hi then t.hi <- x

let count t = t.n
let mean t = t.mu

let summary t =
  let variance = if t.n < 2 then 0.0 else t.m2 /. float_of_int (t.n - 1) in
  {
    count = t.n;
    mean = t.mu;
    variance;
    std_dev = Float.sqrt variance;
    min = (if t.n = 0 then Float.nan else t.lo);
    max = (if t.n = 0 then Float.nan else t.hi);
  }

type interval = { lo : float; hi : float }

let wilson_ci ~successes ~trials ~z =
  if trials <= 0 then invalid_arg "Stats.wilson_ci: trials must be positive";
  if successes < 0 then invalid_arg "Stats.wilson_ci: successes must be nonnegative";
  if successes > trials then invalid_arg "Stats.wilson_ci: successes must not exceed trials";
  let n = float_of_int trials in
  let p = float_of_int successes /. n in
  let z2 = z *. z in
  let denom = 1.0 +. (z2 /. n) in
  let center = (p +. (z2 /. (2.0 *. n))) /. denom in
  let spread = z *. Float.sqrt (((p *. (1.0 -. p)) +. (z2 /. (4.0 *. n))) /. n) /. denom in
  { lo = Float.max 0.0 (center -. spread); hi = Float.min 1.0 (center +. spread) }

let proportion ~successes ~trials =
  if trials = 0 then (Float.nan, { lo = 0.0; hi = 1.0 })
  else (float_of_int successes /. float_of_int trials, wilson_ci ~successes ~trials ~z:1.96)

type histogram = { bins : (int * int) list; total : int }

let histogram values =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let c = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (c + 1))
    values;
  let bins = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  { bins = List.sort (fun (a, _) (b, _) -> compare a b) bins; total = List.length values }

let empirical_pmf h =
  let n = float_of_int h.total in
  List.map (fun (v, c) -> (v, float_of_int c /. n)) h.bins
