module Q = Memrel_prob.Rational
module B = Memrel_prob.Bigint

let q = Q.of_string
let check_q msg expected actual = Alcotest.(check string) msg expected (Q.to_string actual)

let test_normalization () =
  check_q "reduces" "1/2" (Q.of_ints 2 4);
  check_q "sign to numerator" "-1/2" (Q.of_ints 1 (-2));
  check_q "double negative" "1/2" (Q.of_ints (-1) (-2));
  check_q "zero normal form" "0" (Q.of_ints 0 17);
  check_q "integer denominator 1" "5" (Q.of_ints 10 2)

let test_zero_denominator () =
  Alcotest.check_raises "make 1/0" Division_by_zero (fun () -> ignore (Q.of_ints 1 0))

let test_arith () =
  check_q "add" "5/6" (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "sub" "1/6" (Q.sub (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "mul" "1/6" (Q.mul (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "div" "3/2" (Q.div (Q.of_ints 1 2) (Q.of_ints 1 3));
  check_q "neg" "-5/6" (Q.neg (q "5/6"));
  check_q "abs" "5/6" (Q.abs (q "-5/6"))

let test_paper_constants () =
  (* the constants of Theorems 4.1 and 6.2 must be representable exactly *)
  check_q "SC n=2" "1/6" (Q.of_ints 1 6);
  check_q "WO n=2 via arithmetic" "7/54" (Q.mul (Q.of_ints 2 3) (Q.of_ints 7 36));
  check_q "TSO lower" "58/441" (Q.mul (Q.of_ints 2 3) (Q.add (Q.of_ints 1 6) (Q.of_ints 3 98)));
  check_q "TSO upper" "181/1323" (Q.add (q "58/441") (q "1/189"))

let test_pow () =
  check_q "pow 3" "1/8" (Q.pow Q.half 3);
  check_q "pow 0" "1" (Q.pow (q "7/9") 0);
  check_q "pow neg" "9/4" (Q.pow (Q.of_ints 2 3) (-2));
  check_q "pow2 neg" "1/1024" (Q.pow2 (-10));
  check_q "pow2 pos" "1024" (Q.pow2 10)

let test_inv () =
  check_q "inv" "-3/2" (Q.inv (q "-2/3"));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero))

let test_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.compare (q "1/3") Q.half < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true (Q.compare (q "-1/2") (q "1/3") < 0);
  Alcotest.(check bool) "equal reduced" true (Q.equal (Q.of_ints 3 9) (q "1/3"))

let test_to_float () =
  Alcotest.(check (float 1e-12)) "7/54" (7.0 /. 54.0) (Q.to_float (q "7/54"));
  Alcotest.(check (float 1e-12)) "negative" (-0.125) (Q.to_float (q "-1/8"));
  (* survives huge denominators by scaling *)
  let tiny = Q.pow2 (-500) in
  Alcotest.(check (float 1e-160)) "2^-500" (Float.pow 2.0 (-500.0)) (Q.to_float tiny)

let test_log2_underflow_regime () =
  (* 2^-2000 underflows float entirely, but its log2 must be exact *)
  Alcotest.(check (float 1e-6)) "log2 2^-2000" (-2000.0) (Q.log2 (Q.pow2 (-2000)));
  Alcotest.(check (float 1e-9)) "7/54" (Float.log (7.0 /. 54.0) /. Float.log 2.0)
    (Q.log2 (Q.of_ints 7 54));
  Alcotest.check_raises "negative rejected" (Invalid_argument "Rational.log2: negative") (fun () ->
      ignore (Q.log2 (Q.of_ints (-1) 2)))

let test_of_float_dyadic () =
  List.iter
    (fun f ->
      Alcotest.(check (float 0.0)) (string_of_float f) f (Q.to_float (Q.of_float_dyadic f)))
    [ 0.0; 1.0; 0.5; -0.375; 3.141592653589793; 1e-300 ];
  Alcotest.check_raises "nan" (Invalid_argument "Rational.of_float_dyadic: not finite") (fun () ->
      ignore (Q.of_float_dyadic Float.nan))

let test_sum_product () =
  check_q "sum" "11/6" (Q.sum [ Q.one; Q.half; q "1/3" ]);
  check_q "product" "1/6" (Q.product [ Q.half; q "1/3" ])

let test_num_den () =
  let r = q "-6/8" in
  Alcotest.(check string) "num" "-3" (B.to_string (Q.num r));
  Alcotest.(check string) "den" "4" (B.to_string (Q.den r))

(* -- property tests --------------------------------------------------- *)

let arb_q =
  QCheck.map
    (fun (n, d) -> Q.of_ints n d)
    QCheck.(pair (int_range (-10000) 10000) (int_range 1 10000))

let prop name ?(count = 300) gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let properties =
  [
    prop "add commutative" (QCheck.pair arb_q arb_q) (fun (a, b) ->
        Q.equal (Q.add a b) (Q.add b a));
    prop "mul associative" (QCheck.triple arb_q arb_q arb_q) (fun (a, b, c) ->
        Q.equal (Q.mul (Q.mul a b) c) (Q.mul a (Q.mul b c)));
    prop "distributive" (QCheck.triple arb_q arb_q arb_q) (fun (a, b, c) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    prop "normal form is canonical" (QCheck.pair arb_q arb_q) (fun (a, b) ->
        (* equal values have identical num/den *)
        QCheck.assume (Q.equal a b);
        B.equal (Q.num a) (Q.num b) && B.equal (Q.den a) (Q.den b));
    prop "den always positive, coprime" arb_q (fun a ->
        B.sign (Q.den a) = 1 && B.is_one (B.gcd (Q.num a) (Q.den a)));
    prop "div inverse of mul" (QCheck.pair arb_q arb_q) (fun (a, b) ->
        QCheck.assume (not (Q.is_zero b));
        Q.equal a (Q.div (Q.mul a b) b));
    prop "to_string roundtrip" arb_q (fun a -> Q.equal a (Q.of_string (Q.to_string a)));
    prop "to_float monotone" (QCheck.pair arb_q arb_q) (fun (a, b) ->
        QCheck.assume (Q.compare a b < 0);
        Q.to_float a <= Q.to_float b);
    prop "of_float_dyadic exact" QCheck.(float_bound_inclusive 1.0) (fun f ->
        Q.to_float (Q.of_float_dyadic f) = f);
    prop "compare consistent with sub sign" (QCheck.pair arb_q arb_q) (fun (a, b) ->
        compare (Q.compare a b) 0 = compare (Q.sign (Q.sub a b)) 0);
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("normalization", test_normalization);
      ("zero denominator", test_zero_denominator);
      ("arithmetic", test_arith);
      ("paper constants exact", test_paper_constants);
      ("pow and pow2", test_pow);
      ("inv", test_inv);
      ("compare and equal", test_compare);
      ("to_float", test_to_float);
      ("log2 in underflow regime", test_log2_underflow_regime);
      ("of_float_dyadic", test_of_float_dyadic);
      ("sum and product", test_sum_product);
      ("num and den", test_num_den);
    ]
  @ properties
