module S = Memrel_prob.Series

let test_geometric_sum () =
  let r = S.sum_to_convergence (fun k -> Float.pow 0.5 (float_of_int k)) in
  Alcotest.(check (float 1e-12)) "sum 2^-k = 2" 2.0 r.value

let test_quarter_sum () =
  let r = S.sum_to_convergence (fun k -> Float.pow 0.25 (float_of_int k)) in
  Alcotest.(check (float 1e-12)) "sum 4^-k = 4/3" (4.0 /. 3.0) r.value

let test_parity_gap () =
  (* zero terms at odd k must not truncate the sum prematurely *)
  let f k = if k mod 2 = 1 then 0.0 else Float.pow 0.5 (float_of_int (k / 2)) in
  let r = S.sum_to_convergence f in
  Alcotest.(check (float 1e-12)) "gappy sum = 2" 2.0 r.value

let test_max_terms_cap () =
  let r = S.sum_to_convergence ~max_terms:10 (fun _ -> 1.0) in
  Alcotest.(check int) "stops at cap" 10 r.terms;
  Alcotest.(check (float 1e-12)) "partial sum" 10.0 r.value

let test_sum_range () =
  Alcotest.(check (float 1e-12)) "1..100" 5050.0 (S.sum_range float_of_int 1 100);
  Alcotest.(check (float 1e-12)) "empty range" 0.0 (S.sum_range float_of_int 5 4)

let test_kahan_catastrophic () =
  (* 1 + 1e-16 * 10 in naive order loses the small terms; Kahan keeps them *)
  let v = S.sum_range (fun k -> if k = 0 then 1.0 else 1e-16) 0 10 in
  Alcotest.(check bool) "small terms retained" true (v > 1.0)

let prop name ?(count = 100) gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let properties =
  [
    prop "matches closed form for geometric ratios" QCheck.(float_range 0.05 0.9) (fun r ->
        let v = (S.sum_to_convergence (fun k -> Float.pow r (float_of_int k))).value in
        Float.abs (v -. (1.0 /. (1.0 -. r))) < 1e-9);
    prop "kahan matches exact rational sum" QCheck.(list_of_size (Gen.int_range 0 30) (int_range (-1000) 1000))
      (fun ints ->
        let floats = Array.of_list (List.map (fun i -> float_of_int i /. 16.0) ints) in
        (* sixteenths are exact dyadics: kahan must be exactly right *)
        let exact = float_of_int (List.fold_left ( + ) 0 ints) /. 16.0 in
        S.sum_range (Array.get floats) 0 (Array.length floats - 1) = exact);
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("geometric sum", test_geometric_sum);
      ("quarter sum", test_quarter_sum);
      ("parity gaps do not truncate", test_parity_gap);
      ("max_terms cap", test_max_terms_cap);
      ("sum_range", test_sum_range);
      ("kahan compensation", test_kahan_catastrophic);
    ]
  @ properties
