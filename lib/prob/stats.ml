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

let of_samples l =
  let t = create () in
  List.iter (add t) l;
  summary t

type interval = { lo : float; hi : float }

let mean_ci s ~z =
  if s.count = 0 then { lo = Float.nan; hi = Float.nan }
  else begin
    let se = s.std_dev /. Float.sqrt (float_of_int s.count) in
    { lo = s.mean -. (z *. se); hi = s.mean +. (z *. se) }
  end

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

let binomial_point ~successes ~trials = float_of_int successes /. float_of_int trials

let proportion ~successes ~trials =
  if trials = 0 then (Float.nan, { lo = 0.0; hi = 1.0 })
  else (binomial_point ~successes ~trials, wilson_ci ~successes ~trials ~z:1.96)

type histogram = { bins : (int * int) list; total : int }

let histogram_of_counts tbl =
  let bins = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  let bins = List.sort (fun (a, _) (b, _) -> compare a b) bins in
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 bins in
  { bins; total }

let histogram values =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun v ->
      let c = Option.value ~default:0 (Hashtbl.find_opt tbl v) in
      Hashtbl.replace tbl v (c + 1))
    values;
  histogram_of_counts tbl

let empirical_pmf h =
  let n = float_of_int h.total in
  List.map (fun (v, c) -> (v, float_of_int c /. n)) h.bins

let chi_squared ~observed ~expected =
  if Array.length observed <> Array.length expected then
    invalid_arg "Stats.chi_squared: length mismatch";
  let acc = ref 0.0 in
  Array.iteri
    (fun i o ->
      let e = expected.(i) in
      if e <= 0.0 then begin
        if o <> 0 then invalid_arg "Stats.chi_squared: observation in a zero-expectation cell"
      end
      else begin
        let d = float_of_int o -. e in
        acc := !acc +. (d *. d /. e)
      end)
    observed;
  !acc

let chi_squared_threshold_99 ~dof =
  if dof < 1 then invalid_arg "Stats.chi_squared_threshold_99: dof >= 1 required";
  match dof with
  | 1 -> 6.635
  | 2 -> 9.210
  | 3 -> 11.345
  | 4 -> 13.277
  | 5 -> 15.086
  | 6 -> 16.812
  | 7 -> 18.475
  | 8 -> 20.090
  | 9 -> 21.666
  | 10 -> 23.209
  | d ->
    (* Wilson–Hilferty: chi2_q(d) ~ d (1 - 2/(9d) + z_q sqrt(2/(9d)))^3,
       z_0.99 = 2.3263 *)
    let df = float_of_int d in
    let t = 1.0 -. (2.0 /. (9.0 *. df)) +. (2.3263 *. Float.sqrt (2.0 /. (9.0 *. df))) in
    df *. (t ** 3.0)

let total_variation p q =
  let module M = Map.Make (Int) in
  let add_map sign m l =
    List.fold_left
      (fun m (k, v) ->
        let cur = Option.value ~default:0.0 (M.find_opt k m) in
        M.add k (cur +. (sign *. v)) m)
      m l
  in
  let diff = add_map (-1.0) (add_map 1.0 M.empty p) q in
  0.5 *. M.fold (fun _ v acc -> acc +. Float.abs v) diff 0.0
