(* Joint_dp_q: the exact rational port of the coupled bottom-run chains.
   Pins the exact values against the float Joint_dp (which is itself pinned
   to the paper's regime), checks the fast rational instance against the
   Reference-instantiated functor twin, and exercises the exact mass
   identities that only hold with zero rounding. *)

module JQ = Memrel_settling.Joint_dp_q
module J = Memrel_settling.Joint_dp
module Model = Memrel_memmodel.Model
module Q = Memrel_prob.Rational
module QRef = Memrel_oracle.Rational_reference
module JRef = JQ.Make (QRef)

let check_float = Alcotest.(check (float 1e-12))

let test_agrees_with_float_dp () =
  (* the float DP performs the same truncated recursion in binary64; on
     these sizes its rounding error is far below 1e-12, so the exact value
     converted to float must land on top of it *)
  let cases =
    [
      ("tso m=16 n=3", Model.tso (), 16, 3, 0.0094618914132670612);
      ("tso m=24 n=2", Model.tso (), 24, 2, 0.20147001770435172);
      ("pso m=16 n=3", Model.pso (), 16, 3, 0.011794661037690023);
    ]
  in
  List.iter
    (fun (name, model, m, n, pinned) ->
      let float_dp = J.expect_product model ~m ~n in
      check_float (name ^ " float pin") pinned float_dp;
      (* every float probability is dyadic, so the model lifts exactly *)
      let exact =
        JQ.expect_product ~s:(Q.of_float_dyadic (Model.s model)) (Model.family model) ~m ~n
      in
      check_float (name ^ " exact vs float") float_dp (Q.to_float exact))
    cases

let test_fast_equals_reference () =
  let fams = [ Model.Total_store_order; Model.Partial_store_order ] in
  List.iter
    (fun family ->
      let fast = JQ.expect_product ~b_max:6 ~s:Q.half family ~m:8 ~n:3 in
      let reference = JRef.expect_product ~b_max:6 ~s:QRef.half family ~m:8 ~n:3 in
      Alcotest.(check string)
        (Model.family_name family ^ " fast = reference")
        (QRef.to_string reference) (Q.to_string fast);
      let fast_pmf = JQ.bottom_run_pmf ~b_max:6 ~s:Q.half family ~m:8 in
      let ref_pmf = JRef.bottom_run_pmf ~b_max:6 ~s:QRef.half family ~m:8 in
      Alcotest.(check (array string))
        (Model.family_name family ^ " pmf fast = reference")
        (Array.map QRef.to_string ref_pmf)
        (Array.map Q.to_string fast_pmf))
    fams

let test_sc_closed_form () =
  (* SC windows are deterministic (Gamma = 2 per thread), so the product
     is 2^(-2 sum i) = 2^(-(n-1)n); also cross-check the float DP *)
  List.iter
    (fun n ->
      let expected = Q.pow2 (-(n - 1) * n) in
      let exact = JQ.expect_product ~s:Q.half Model.Sequential_consistency ~m:12 ~n in
      Alcotest.(check string)
        (Printf.sprintf "sc n=%d" n)
        (Q.to_string expected) (Q.to_string exact);
      check_float
        (Printf.sprintf "sc n=%d vs float" n)
        (J.expect_product Model.sc ~m:12 ~n)
        (Q.to_float exact))
    [ 2; 3; 4 ]

let test_pmf_mass_exactly_one () =
  (* truncation clamps mass at b_max rather than dropping it, so the exact
     pmf sums to exactly 1 — an identity floats cannot express *)
  List.iter
    (fun (family, m, b_max) ->
      let pmf = JQ.bottom_run_pmf ~b_max ~s:(Q.of_ints 1 3) family ~m in
      let total = Array.fold_left Q.add Q.zero pmf in
      Alcotest.(check string)
        (Printf.sprintf "%s m=%d mass" (Model.family_name family) m)
        "1" (Q.to_string total))
    [
      (Model.Total_store_order, 10, 6);
      (Model.Total_store_order, 7, 3);
      (Model.Partial_store_order, 10, 6);
    ]

let test_monotone_in_m () =
  (* E[2^(-Gamma_1)] shrinks as the prefix grows under TSO: more prefix
     instructions pile more STs into the bottom run, stretching the window.
     The exact sequence must decrease monotonically towards the m -> infty
     value (~0.2014700..., pinned at m = 24 above). *)
  let v m = JQ.expect_product ~s:Q.half Model.Total_store_order ~m ~n:2 in
  let prev = ref (v 2) in
  for m = 3 to 12 do
    let cur = v m in
    if Q.compare cur !prev >= 0 then
      Alcotest.fail (Printf.sprintf "not strictly decreasing at m=%d" m);
    prev := cur
  done;
  (* still above the limit: truncation only ever removes probability mass
     from long windows *)
  Alcotest.(check bool) "bounded below by the m=24 value" true
    (Q.compare !prev (JQ.expect_product ~s:Q.half Model.Total_store_order ~m:24 ~n:2) > 0)

let test_b_max_folds_the_tail () =
  (* clamping at b_max is exact for the law of min(B, b_max) (see
     test_joint_dp): as a rational identity, the truncated pmf is the
     untruncated one with its tail summed onto b_max *)
  List.iter
    (fun (family, m, b_max) ->
      let s = Q.of_ints 1 3 in
      let full = JQ.bottom_run_pmf ~s family ~m ~b_max:m in
      let tail = Array.fold_left Q.add Q.zero (Array.sub full b_max (m + 1 - b_max)) in
      Array.iteri
        (fun mu v ->
          Alcotest.(check string)
            (Printf.sprintf "%s m=%d b_max=%d mu=%d" (Model.family_name family) m b_max mu)
            (Q.to_string (if mu < b_max then full.(mu) else tail))
            (Q.to_string v))
        (JQ.bottom_run_pmf ~s family ~m ~b_max))
    [
      (Model.Total_store_order, 9, 1);
      (Model.Total_store_order, 9, 4);
      (Model.Partial_store_order, 8, 2);
    ]

let test_validation () =
  Alcotest.check_raises "p out of range" (Invalid_argument "Joint_dp_q: p must be in (0,1)")
    (fun () ->
      ignore (JQ.expect_product ~p:Q.one ~s:Q.half Model.Total_store_order ~m:4 ~n:2));
  Alcotest.check_raises "s out of range" (Invalid_argument "Joint_dp_q: s must be in (0,1)")
    (fun () -> ignore (JQ.expect_product ~s:Q.zero Model.Total_store_order ~m:4 ~n:2));
  Alcotest.check_raises "n too large"
    (Invalid_argument "Joint_dp_q.expect_product: n must be in [2, max_replicas + 1]")
    (fun () ->
      ignore (JQ.expect_product ~s:Q.half Model.Total_store_order ~m:4 ~n:(JQ.max_replicas + 2)));
  Alcotest.check_raises "wo rejected"
    (Invalid_argument "Joint_dp_q: only SC/TSO/PSO families are supported") (fun () ->
      ignore (JQ.expect_product ~s:Q.half Model.Weak_ordering ~m:4 ~n:2))

let suite =
  [
    Alcotest.test_case "agrees with float joint_dp" `Quick test_agrees_with_float_dp;
    Alcotest.test_case "fast = reference instance" `Quick test_fast_equals_reference;
    Alcotest.test_case "sc closed form" `Quick test_sc_closed_form;
    Alcotest.test_case "pmf mass exactly 1" `Quick test_pmf_mass_exactly_one;
    Alcotest.test_case "monotone in m" `Quick test_monotone_in_m;
    Alcotest.test_case "b_max folds the tail" `Quick test_b_max_folds_the_tail;
    Alcotest.test_case "validation errors" `Quick test_validation;
  ]
