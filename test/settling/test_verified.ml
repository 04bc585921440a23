module V = Memrel_settling.Verified
module A = Memrel_settling.Analytic
module Q = Memrel_prob.Rational

(* smaller cutoffs than the defaults keep the suite fast; widths stay far
   below the gaps being certified *)
let q_max = 40
let mu_max = 40
let gamma_max = 40

let test_l_mu_encloses_float_series () =
  for mu = 0 to 8 do
    let e = V.l_mu ~q_max mu in
    let f = A.l_mu_series mu in
    Alcotest.(check bool)
      (Printf.sprintf "mu=%d: %g in [%g, %g]" mu f (Q.to_float e.lo) (Q.to_float e.hi))
      true
      (Q.to_float e.lo -. 1e-12 <= f && f <= Q.to_float e.hi +. 1e-12)
  done

let test_l_mu_tight () =
  for mu = 1 to 8 do
    Alcotest.(check bool) "width tiny" true
      (Q.compare (V.width (V.l_mu ~q_max mu)) (Q.of_ints 1 1_000_000) < 0)
  done

let test_l_mu_above_paper_bound () =
  (* rigorous version of Lemma 4.2. At mu = 1 the paper's bound is exactly
     tight — Pr[L_1] = 2/7 = (4/7) 2^-1 — so the truncated lower end sits a
     hair below it; certify the bound there up to the enclosure width. For
     mu >= 2 the enclosure's LOWER end strictly beats the bound. *)
  let e1 = V.l_mu ~q_max 1 in
  let bound1 = Q.of_ints 2 7 in
  Alcotest.(check bool) "mu=1 tight" true
    (Q.compare e1.hi bound1 >= 0
     && Q.compare (Q.sub bound1 e1.lo) (V.width e1) <= 0);
  for mu = 2 to 10 do
    let e = V.l_mu ~q_max mu in
    let bound = Q.mul (Q.of_ints 4 7) (Q.pow2 (-mu)) in
    Alcotest.(check bool) (Printf.sprintf "mu=%d strict" mu) true (Q.compare e.lo bound > 0)
  done

let test_b_tso_encloses_float_series () =
  for gamma = 0 to 6 do
    let e = V.b_tso ~q_max ~mu_max gamma in
    let f = A.b_tso_series gamma in
    Alcotest.(check bool)
      (Printf.sprintf "gamma=%d" gamma)
      true
      (Q.to_float e.lo -. 1e-12 <= f && f <= Q.to_float e.hi +. 1e-12)
  done

let test_b_tso_within_paper_bounds () =
  (* rigorous Theorem 4.1: the enclosure sits inside [lower, upper] *)
  for gamma = 1 to 8 do
    let e = V.b_tso ~q_max ~mu_max gamma in
    Alcotest.(check bool)
      (Printf.sprintf "gamma=%d" gamma)
      true
      (Q.compare (A.b_tso_lower gamma) e.lo <= 0 && Q.compare e.hi (A.b_tso_upper gamma) <= 0)
  done

let test_theorem_6_2_verified () =
  let e = V.pr_a_tso_n2 ~q_max ~mu_max ~gamma_max () in
  let paper_lo = Q.of_ints 58 441 in
  let paper_hi = Q.add paper_lo (Q.of_ints 1 189) in
  Alcotest.(check bool) "strictly inside the paper's open bracket" true
    (Q.compare paper_lo e.lo < 0 && Q.compare e.hi paper_hi < 0);
  Alcotest.(check bool) "width below 1e-9" true
    (Q.compare (V.width e) (Q.of_ints 1 1_000_000_000) < 0);
  (* and the float series sits inside the certified interval *)
  let f = Memrel_interleave.Analytic.pr_a_n2_tso_series () in
  Alcotest.(check bool) "float value inside" true
    (Q.to_float e.lo -. 1e-12 <= f && f <= Q.to_float e.hi +. 1e-12)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("L_mu encloses the float series", test_l_mu_encloses_float_series);
      ("L_mu widths tiny", test_l_mu_tight);
      ("Lemma 4.2, rigorous", test_l_mu_above_paper_bound);
      ("B_gamma encloses the float series", test_b_tso_encloses_float_series);
      ("Theorem 4.1 bounds, rigorous", test_b_tso_within_paper_bounds);
      ("Theorem 6.2 TSO bracket, machine-verified", test_theorem_6_2_verified);
    ]
