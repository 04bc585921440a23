module A = Memrel_shift.Asymptotic
module E = Memrel_shift.Exact
module Q = Memrel_prob.Rational

let log2q q = Float.log (Q.to_float q) /. Float.log 2.0

let test_log2_c () =
  Alcotest.(check (float 1e-12)) "log2 c(1) = 1" 1.0 (A.log2_c 1);
  Alcotest.(check (float 1e-9)) "log2 c(2)" (log2q (E.c 2)) (A.log2_c 2);
  Alcotest.(check (float 1e-9)) "log2 c(8)" (log2q (E.c 8)) (A.log2_c 8);
  (* converges: differences shrink *)
  let d1 = A.log2_c 10 -. A.log2_c 9 and d2 = A.log2_c 20 -. A.log2_c 19 in
  Alcotest.(check bool) "converging" true (d2 < d1)

let test_log2_pr_sc_matches_exact () =
  (* the log-space SC value must equal log2 of the exact rational from the
     symmetric formula *)
  for n = 2 to 8 do
    let exact = E.symmetric_disjoint_probability [ (2, Q.one) ] ~n in
    Alcotest.(check (float 1e-6))
      (Printf.sprintf "n=%d" n)
      (Q.log2 exact)
      (A.log2_pr_sc n)
  done

let test_sc_known_small_values () =
  (* Pr[A]_SC: 1/6 at n=2, 1/224 at n=3 (computed exactly elsewhere) *)
  Alcotest.(check (float 1e-9)) "n=2" (Float.log (1.0 /. 6.0) /. Float.log 2.0) (A.log2_pr_sc 2);
  Alcotest.(check (float 1e-9)) "n=3" (Float.log (1.0 /. 224.0) /. Float.log 2.0) (A.log2_pr_sc 3)

let test_normalized_exponent_tends_to_three_halves () =
  (* Theorem 6.3: -log2 Pr / n^2 -> 3/2; by n = 200 we should be close and
     still increasing toward it from below *)
  let norm n = A.normalized_exponent ~log2_pr:(A.log2_pr_sc n) ~n in
  Alcotest.(check bool) "increasing" true (norm 10 < norm 50 && norm 50 < norm 200);
  Alcotest.(check bool) "below 3/2" true (norm 200 < 1.5);
  Alcotest.(check bool) "close to 3/2 by n=200" true (norm 200 > 1.4)

let test_floor_bound_below_sc () =
  for n = 2 to 30 do
    Alcotest.(check bool) "floor <= SC" true (A.log2_pr_floor_any_model n <= A.log2_pr_sc n)
  done;
  (* and the gap is exactly n-1 bits *)
  Alcotest.(check (float 1e-9)) "gap" 9.0 (A.log2_pr_sc 10 -. A.log2_pr_floor_any_model 10)

let test_symmetric_formula_custom_transform () =
  (* plugging the SC transform into the generic entry point reproduces SC *)
  let v = A.log2_disjoint_symmetric ~log2_expect:(fun i -> float_of_int (-2 * i)) ~n:5 in
  Alcotest.(check (float 1e-9)) "n=5" (A.log2_pr_sc 5) v

let test_guards () =
  Alcotest.check_raises "n=0" (Invalid_argument "Asymptotic.log2_c: n >= 1 required") (fun () ->
      ignore (A.log2_c 0));
  Alcotest.check_raises "normalized n=0"
    (Invalid_argument "Asymptotic.normalized_exponent: n >= 1 required") (fun () ->
      ignore (A.normalized_exponent ~log2_pr:(-1.0) ~n:0))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("log2_c", test_log2_c);
      ("log-space SC matches exact", test_log2_pr_sc_matches_exact);
      ("SC known values", test_sc_known_small_values);
      ("Theorem 6.3 normalized exponent", test_normalized_exponent_tends_to_three_halves);
      ("universal floor below SC", test_floor_bound_below_sc);
      ("generic transform entry point", test_symmetric_formula_custom_transform);
      ("guards", test_guards);
    ]
