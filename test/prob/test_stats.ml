module S = Memrel_prob.Stats
module G = Memrel_oracle.Goodness_of_fit

let of_samples l =
  let t = S.create () in
  List.iter (S.add t) l;
  S.summary t

let test_welford_basic () =
  let t = S.create () in
  List.iter (S.add t) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  let s = S.summary t in
  Alcotest.(check int) "count" 8 s.count;
  Alcotest.(check (float 1e-9)) "mean" 5.0 s.mean;
  Alcotest.(check (float 1e-9)) "variance (unbiased)" (32.0 /. 7.0) s.variance;
  Alcotest.(check (float 1e-9)) "min" 2.0 s.min;
  Alcotest.(check (float 1e-9)) "max" 9.0 s.max

let test_empty_and_single () =
  let s = of_samples [] in
  Alcotest.(check int) "empty count" 0 s.count;
  Alcotest.(check bool) "empty min is nan" true (Float.is_nan s.min);
  let s1 = of_samples [ 3.5 ] in
  Alcotest.(check (float 0.0)) "single mean" 3.5 s1.mean;
  Alcotest.(check (float 0.0)) "single variance 0" 0.0 s1.variance

let test_welford_stability () =
  (* large offset: naive sum-of-squares would lose precision *)
  let t = S.create () in
  let offset = 1e9 in
  List.iter (fun x -> S.add t (offset +. x)) [ 1.0; 2.0; 3.0 ];
  let s = S.summary t in
  Alcotest.(check (float 1e-6)) "variance stable" 1.0 s.variance

let test_wilson_extremes () =
  let ci0 = S.wilson_ci ~successes:0 ~trials:100 ~z:1.96 in
  Alcotest.(check (float 1e-9)) "zero successes lo = 0" 0.0 ci0.lo;
  Alcotest.(check bool) "zero successes hi > 0" true (ci0.hi > 0.0 && ci0.hi < 0.1);
  let ci1 = S.wilson_ci ~successes:100 ~trials:100 ~z:1.96 in
  Alcotest.(check (float 1e-9)) "all successes hi = 1" 1.0 ci1.hi;
  Alcotest.(check bool) "all successes lo < 1" true (ci1.lo < 1.0 && ci1.lo > 0.9)

let test_wilson_coverage_shape () =
  let ci = S.wilson_ci ~successes:50 ~trials:100 ~z:1.96 in
  Alcotest.(check bool) "centered-ish" true (ci.lo < 0.5 && 0.5 < ci.hi);
  Alcotest.(check bool) "roughly +-0.1" true (ci.hi -. ci.lo < 0.25);
  Alcotest.check_raises "trials = 0" (Invalid_argument "Stats.wilson_ci: trials must be positive")
    (fun () -> ignore (S.wilson_ci ~successes:0 ~trials:0 ~z:1.96))

let test_wilson_rejects_bad_successes () =
  (* regression: these used to return a garbage interval silently *)
  Alcotest.check_raises "negative successes"
    (Invalid_argument "Stats.wilson_ci: successes must be nonnegative") (fun () ->
      ignore (S.wilson_ci ~successes:(-1) ~trials:100 ~z:1.96));
  Alcotest.check_raises "successes > trials"
    (Invalid_argument "Stats.wilson_ci: successes must not exceed trials") (fun () ->
      ignore (S.wilson_ci ~successes:101 ~trials:100 ~z:1.96))

let test_histogram () =
  let h = S.histogram [ 3; 1; 1; 2; 3; 3 ] in
  Alcotest.(check (list (pair int int))) "bins sorted" [ (1, 2); (2, 1); (3, 3) ] h.bins;
  Alcotest.(check int) "total" 6 h.total;
  let pmf = S.empirical_pmf h in
  Alcotest.(check (float 1e-9)) "pmf of 3" 0.5 (List.assoc 3 pmf)

let test_histogram_order_insensitive () =
  (* regression for the parallel-merge contract: the printed histogram (and
     pmf) must be sorted by value, independent of hashtable insertion order,
     so the chunk-merge order of Par can never change output *)
  let of_pairs pairs =
    S.histogram (List.concat_map (fun (k, c) -> List.init c (Fun.const k)) pairs)
  in
  let pairs = [ (4, 1); (0, 3); (7, 2); (2, 5); (9, 1) ] in
  let forward = of_pairs pairs in
  let backward = of_pairs (List.rev pairs) in
  let shuffled = of_pairs [ (7, 2); (9, 1); (0, 3); (4, 1); (2, 5) ] in
  let expected = [ (0, 3); (2, 5); (4, 1); (7, 2); (9, 1) ] in
  List.iter
    (fun (name, h) ->
      Alcotest.(check (list (pair int int))) (name ^ " bins sorted by value") expected h.S.bins;
      Alcotest.(check int) (name ^ " total") 12 h.S.total)
    [ ("forward", forward); ("backward", backward); ("shuffled", shuffled) ];
  Alcotest.(check (list int)) "pmf order follows bins" (List.map fst expected)
    (List.map fst (S.empirical_pmf forward))

let test_chi_squared () =
  (* textbook die example: perfectly uniform observations give 0 *)
  Alcotest.(check (float 1e-12)) "perfect fit" 0.0
    (G.chi_squared ~observed:[| 10; 10; 10 |] ~expected:[| 10.0; 10.0; 10.0 |]);
  Alcotest.(check (float 1e-12)) "one cell off" 0.8
    (G.chi_squared ~observed:[| 12; 10; 8 |] ~expected:[| 10.0; 10.0; 10.0 |]);
  Alcotest.(check (float 1e-12)) "zero-expectation cell ignored when empty" 0.0
    (G.chi_squared ~observed:[| 0; 5 |] ~expected:[| 0.0; 5.0 |]);
  Alcotest.check_raises "observation in impossible cell"
    (Invalid_argument "Goodness_of_fit.chi_squared: observation in a zero-expectation cell")
    (fun () -> ignore (G.chi_squared ~observed:[| 1 |] ~expected:[| 0.0 |]));
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Goodness_of_fit.chi_squared: length mismatch")
    (fun () -> ignore (G.chi_squared ~observed:[| 1 |] ~expected:[| 1.0; 1.0 |]))

let test_chi_squared_thresholds () =
  Alcotest.(check (float 1e-3)) "dof 1" 6.635 (G.chi_squared_threshold_99 ~dof:1);
  Alcotest.(check (float 1e-3)) "dof 5" 15.086 (G.chi_squared_threshold_99 ~dof:5);
  (* Wilson-Hilferty approximation: dof 20 tabulated value is 37.566 *)
  Alcotest.(check (float 0.2)) "dof 20" 37.566 (G.chi_squared_threshold_99 ~dof:20);
  (* monotone in dof *)
  for d = 1 to 29 do
    Alcotest.(check bool) "monotone" true
      (G.chi_squared_threshold_99 ~dof:d < G.chi_squared_threshold_99 ~dof:(d + 1))
  done

let prop name ?(count = 200) gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let properties =
  [
    prop "mean within [min,max]" QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_inclusive 100.0))
      (fun l ->
        let s = of_samples l in
        s.min <= s.mean +. 1e-9 && s.mean <= s.max +. 1e-9);
    prop "variance nonnegative" QCheck.(list_of_size (Gen.int_range 2 50) (float_bound_inclusive 100.0))
      (fun l -> (of_samples l).variance >= -1e-9);
    prop "wilson contains point estimate"
      QCheck.(pair (int_range 0 1000) (int_range 1 1000))
      (fun (s, t) ->
        QCheck.assume (s <= t);
        let ci = S.wilson_ci ~successes:s ~trials:t ~z:1.96 in
        let p = float_of_int s /. float_of_int t in
        ci.lo <= p +. 1e-9 && p <= ci.hi +. 1e-9);
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("welford basics", test_welford_basic);
      ("empty and single", test_empty_and_single);
      ("welford numerical stability", test_welford_stability);
      ("wilson extremes", test_wilson_extremes);
      ("wilson shape", test_wilson_coverage_shape);
      ("wilson rejects invalid successes", test_wilson_rejects_bad_successes);
      ("histogram", test_histogram);
      ("histogram order-insensitive", test_histogram_order_insensitive);
      ("chi squared", test_chi_squared);
      ("chi squared thresholds", test_chi_squared_thresholds);
    ]
  @ properties
