(* Pearson's chi-squared goodness-of-fit check for the stochastic tests,
   which compare a Monte Carlo histogram with an exact pmf. *)

(* [chi_squared ~observed ~expected] is the Pearson statistic
   [sum (o_i - e_i)^2 / e_i]. Cells with [expected <= 0] must have zero
   observations (else [Invalid_argument]); such cells contribute nothing.
   Degrees of freedom are the caller's business. *)
let chi_squared ~observed ~expected =
  if Array.length observed <> Array.length expected then
    invalid_arg "Goodness_of_fit.chi_squared: length mismatch";
  let acc = ref 0.0 in
  Array.iteri
    (fun i o ->
      let e = expected.(i) in
      if e <= 0.0 then begin
        if o <> 0 then
          invalid_arg "Goodness_of_fit.chi_squared: observation in a zero-expectation cell"
      end
      else begin
        let d = float_of_int o -. e in
        acc := !acc +. (d *. d /. e)
      end)
    observed;
  !acc

(* Conservative 99th-percentile critical values for small degrees of
   freedom (an exact table to 10, the Wilson–Hilferty approximation beyond):
   a test rejects at the 1% level when the statistic exceeds this, so its
   false positive rate is known. *)
let chi_squared_threshold_99 ~dof =
  if dof < 1 then invalid_arg "Goodness_of_fit.chi_squared_threshold_99: dof >= 1 required";
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
