module J = Memrel_settling.Joint_dp
module D = Memrel_settling.Exact_dp
module A = Memrel_settling.Analytic
module Model = Memrel_memmodel.Model
module Q = Memrel_prob.Rational

let test_bottom_run_is_l_mu () =
  (* the coupled-chain stationary distribution must reproduce the exact
     Pr[L_mu] series — two completely different computations *)
  let pmf = J.bottom_run_pmf (Model.tso ()) ~m:64 in
  for mu = 0 to 8 do
    Alcotest.(check (float 1e-8)) (Printf.sprintf "mu=%d" mu) (A.l_mu_series mu) pmf.(mu)
  done

let test_bottom_run_mass () =
  let pmf = J.bottom_run_pmf (Model.tso ()) ~m:64 in
  Alcotest.(check (float 1e-12)) "mass 1" 1.0 (Array.fold_left ( +. ) 0.0 pmf)

let test_bottom_run_finite_m_matches_mask_dp () =
  (* trailing-ST distribution from the 2^m mask DP at finite m: compare
     through the bottom-ST probability at several m *)
  for m = 2 to 12 do
    let pmf = J.bottom_run_pmf (Model.tso ()) ~m ~b_max:m in
    Alcotest.(check (float 1e-12))
      (Printf.sprintf "m=%d" m)
      (D.bottom_st_probability (Model.tso ()) ~m)
      (1.0 -. pmf.(0))
  done

let test_n2_equals_marginal () =
  (* with a single factor the joint law reduces to the marginal: must equal
     the independent 2^m-state DP exactly *)
  List.iter
    (fun model ->
      Alcotest.(check (float 1e-10))
        (Model.name model)
        (D.expect_pow2_window model ~m:16 ~k:1)
        (J.expect_product model ~m:16 ~n:2 ~b_max:16))
    [ Model.tso (); Model.pso () ]

let test_sc_wo_dispatch () =
  (* SC: deterministic product; WO: factorizes *)
  Alcotest.(check (float 1e-12)) "SC n=3" (Float.pow 2.0 (-6.0))
    (J.expect_product Model.sc ~m:32 ~n:3);
  let e_joint = J.expect_product (Model.wo ()) ~m:32 ~n:3 in
  let e_indep =
    A.expect_pow2_window `WO ~k:1 *. A.expect_pow2_window `WO ~k:2
  in
  Alcotest.(check (float 1e-9)) "WO n=3 factorizes" e_indep e_joint

let test_correlation_positive_tso () =
  (* shared-program correlation makes the joint expectation exceed the
     product of marginals (windows are positively associated and 2^-kG is
     decreasing) for every n *)
  for n = 3 to 5 do
    let joint = J.expect_product (Model.tso ()) ~m:48 ~n in
    let indep = ref 1.0 in
    for i = 1 to n - 1 do
      indep := !indep *. A.expect_pow2_window `TSO_series ~k:i
    done;
    Alcotest.(check bool)
      (Printf.sprintf "n=%d: joint %g > indep %g" n joint !indep)
      true (joint > !indep)
  done

let test_converges_in_m () =
  let v m = J.expect_product (Model.tso ()) ~m ~n:3 in
  let d1 = Float.abs (v 16 -. v 64) and d2 = Float.abs (v 32 -. v 64) in
  Alcotest.(check bool) (Printf.sprintf "m-convergence %g >= %g" d1 d2) true (d1 >= d2);
  Alcotest.(check bool) "converged by m=32" true (d2 < 1e-9)

let test_b_max_truncation_small () =
  let full = J.expect_product (Model.tso ()) ~m:48 ~n:3 ~b_max:40 in
  let trunc = J.expect_product (Model.tso ()) ~m:48 ~n:3 ~b_max:24 in
  Alcotest.(check (float 1e-7)) "b_max=24 already converged" full trunc

let test_pso_between () =
  (* PSO windows are smaller than TSO's, so its transform is larger *)
  let tso = J.expect_product (Model.tso ()) ~m:48 ~n:3 in
  let pso = J.expect_product (Model.pso ()) ~m:48 ~n:3 in
  let sc = J.expect_product Model.sc ~m:48 ~n:3 in
  Alcotest.(check bool) "TSO < PSO < SC" true (tso < pso && pso < sc)

let test_general_p_consistency () =
  (* marginal at p = 0.7 matches the mask DP *)
  Alcotest.(check (float 1e-10)) "p=0.7"
    (D.expect_pow2_window ~p:0.7 (Model.tso ()) ~m:14 ~k:1)
    (J.expect_product ~p:0.7 (Model.tso ()) ~m:14 ~n:2 ~b_max:14)

let test_b_max_folds_the_tail () =
  (* a run of at least b_max STs moves under every program draw as one of
     exactly b_max does, in law of min(B, b_max): clamping at b_max folds
     the untruncated pmf's tail onto b_max, with no other error *)
  List.iter
    (fun (model, m, b_max) ->
      let full = J.bottom_run_pmf model ~m ~b_max:m in
      let tail = Array.fold_left ( +. ) 0.0 (Array.sub full b_max (m + 1 - b_max)) in
      Array.iteri
        (fun mu v ->
          Alcotest.(check (float 1e-12))
            (Printf.sprintf "%s m=%d b_max=%d mu=%d" (Model.name model) m b_max mu)
            (if mu < b_max then full.(mu) else tail)
            v)
        (J.bottom_run_pmf model ~m ~b_max))
    [ (Model.tso (), 10, 1); (Model.tso (), 10, 3); (Model.pso ~s:0.3 (), 12, 2) ]

let test_guards () =
  Alcotest.check_raises "n too large"
    (Invalid_argument "Joint_dp.expect_product: n must be in [2, max_replicas + 1]") (fun () ->
      ignore (J.expect_product (Model.tso ()) ~m:8 ~n:(J.max_replicas + 2)));
  Alcotest.check_raises "custom rejected" (Invalid_argument "Joint_dp: Custom models are not supported")
    (fun () ->
      ignore
        (J.expect_product
           (Model.custom ~name:"x" ~st_st:0.1 ~st_ld:0.1 ~ld_st:0.1 ~ld_ld:0.1)
           ~m:8 ~n:2));
  Alcotest.check_raises "wo bottom-run rejected"
    (Invalid_argument "Joint_dp.bottom_run_pmf: TSO/PSO dynamics only") (fun () ->
      ignore (J.bottom_run_pmf (Model.wo ()) ~m:8))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("bottom-run chain = exact L_mu series", test_bottom_run_is_l_mu);
      ("bottom-run mass", test_bottom_run_mass);
      ("finite-m agreement with mask DP", test_bottom_run_finite_m_matches_mask_dp);
      ("n=2 equals marginal", test_n2_equals_marginal);
      ("SC/WO dispatch", test_sc_wo_dispatch);
      ("TSO correlation positive", test_correlation_positive_tso);
      ("m convergence", test_converges_in_m);
      ("b_max truncation", test_b_max_truncation_small);
      ("PSO between TSO and SC", test_pso_between);
      ("general p consistency", test_general_p_consistency);
      ("b_max folds the tail", test_b_max_folds_the_tail);
      ("guards", test_guards);
    ]
