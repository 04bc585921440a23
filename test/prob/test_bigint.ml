module B = Memrel_prob.Bigint

let check_str msg expected actual = Alcotest.(check string) msg expected (B.to_string actual)
let bi = B.of_string
let divmod a b = (B.div a b, B.rem a b)

(* -- unit tests ------------------------------------------------------- *)

let test_of_int_roundtrip () =
  List.iter
    (fun n -> Alcotest.(check int) (string_of_int n) n (B.to_int (B.of_int n)))
    [ 0; 1; -1; 42; -42; 32767; 32768; -32768; 1 lsl 40; -(1 lsl 40); max_int; min_int + 1 ]

let test_to_string_small () =
  check_str "zero" "0" B.zero;
  check_str "one" "1" B.one;
  check_str "neg" "-17" (B.of_int (-17));
  check_str "big limb boundary" "32768" (B.of_int 32768)

let test_of_string_roundtrip () =
  List.iter
    (fun s -> check_str s s (bi s))
    [ "0"; "1"; "-1"; "123456789"; "-987654321098765432109876543210";
      "1000000000000000000000000000000000001" ]

let test_of_string_signs () =
  check_str "plus sign" "5" (bi "+5");
  Alcotest.check_raises "empty" (Invalid_argument "Bigint.of_string: empty string") (fun () ->
      ignore (bi ""));
  Alcotest.check_raises "garbage" (Invalid_argument "Bigint.of_string: invalid digit") (fun () ->
      ignore (bi "12a3"))

let test_add_carries () =
  check_str "carry chain" "1000000000000000000000"
    (B.add (bi "999999999999999999999") B.one);
  check_str "mixed signs" "-1" (B.add (B.of_int 4) (B.of_int (-5)));
  check_str "cancel" "0" (B.add (bi "123456789123456789") (bi "-123456789123456789"))

let test_sub () =
  check_str "borrow chain" "999999999999999999999"
    (B.sub (bi "1000000000000000000000") B.one);
  check_str "negative result" "-2" (B.sub (B.of_int 3) (B.of_int 5))

let test_mul () =
  check_str "schoolbook" "121932631137021795226185032733622923332237463801111263526900"
    (B.mul (bi "123456789012345678901234567890") (bi "987654321098765432109876543210"));
  check_str "by zero" "0" (B.mul (bi "99999999999") B.zero);
  check_str "sign" "-6" (B.mul (B.of_int 2) (B.of_int (-3)))

let test_divmod_exact () =
  let q, r = divmod (bi "1000000000000000000000") (bi "1000000000") in
  check_str "quot" "1000000000000" q;
  check_str "rem" "0" r

let test_divmod_truncation () =
  (* truncated division: remainder carries the dividend's sign *)
  let cases = [ (7, 2); (-7, 2); (7, -2); (-7, -2) ] in
  List.iter
    (fun (a, b) ->
      let q, r = divmod (B.of_int a) (B.of_int b) in
      Alcotest.(check int) (Printf.sprintf "q %d/%d" a b) (a / b) (B.to_int q);
      Alcotest.(check int) (Printf.sprintf "r %d/%d" a b) (a mod b) (B.to_int r))
    cases

let test_div_by_zero () =
  Alcotest.check_raises "divmod 0" Division_by_zero (fun () -> ignore (B.div B.one B.zero))

let test_pow () =
  check_str "2^100" "1267650600228229401496703205376" (B.pow B.two 100);
  check_str "x^0" "1" (B.pow (bi "123123123") 0);
  Alcotest.check_raises "neg exp" (Invalid_argument "Bigint.pow: negative exponent") (fun () ->
      ignore (B.pow B.two (-1)))

let test_pow2_shift () =
  check_str "pow2 64" "18446744073709551616" (B.pow2 64);
  check_str "shift_left" "18446744073709551616" (B.shift_left B.one 64);
  check_str "shift_right" "1" (B.shift_right (B.pow2 64) 64);
  check_str "shift_right truncates" "2" (B.shift_right (B.of_int 5) 1)

let test_gcd () =
  check_str "gcd large" "9000000000900000000090"
    (B.gcd (bi "123456789012345678901234567890") (bi "987654321098765432109876543210"));
  check_str "gcd with zero" "42" (B.gcd B.zero (B.of_int 42));
  check_str "gcd of negatives" "6" (B.gcd (B.of_int (-12)) (B.of_int 18));
  check_str "coprime" "1" (B.gcd (B.of_int 35) (B.of_int 64))

let test_compare () =
  Alcotest.(check bool) "lt" true (B.compare (B.of_int 3) (B.of_int 5) < 0);
  Alcotest.(check bool) "neg lt pos" true (B.compare (B.of_int (-1)) B.zero < 0);
  Alcotest.(check bool) "neg order flips" true (B.compare (B.of_int (-5)) (B.of_int (-3)) < 0);
  Alcotest.(check bool) "big" true (B.compare (bi "99999999999999999999") (bi "100000000000000000000") < 0)

let test_num_bits () =
  Alcotest.(check int) "zero" 0 (B.num_bits B.zero);
  Alcotest.(check int) "one" 1 (B.num_bits B.one);
  Alcotest.(check int) "255" 8 (B.num_bits (B.of_int 255));
  Alcotest.(check int) "256" 9 (B.num_bits (B.of_int 256));
  Alcotest.(check int) "2^100" 101 (B.num_bits (B.pow2 100))

let test_to_float () =
  Alcotest.(check (float 1e-6)) "small" 12345.0 (B.to_float (B.of_int 12345));
  let f = B.to_float (B.pow2 80) in
  Alcotest.(check (float 1e6)) "2^80" (Float.pow 2.0 80.0) f

let test_to_int_overflow () =
  Alcotest.(check (option int)) "fits" (Some 123) (B.to_int_opt (B.of_int 123));
  Alcotest.(check (option int)) "overflow" None (B.to_int_opt (B.pow2 80))

(* -- property tests --------------------------------------------------- *)

let arb_bigint =
  (* random decimal strings up to ~40 digits, either sign *)
  QCheck.map
    (fun (neg, digits) ->
      let s = String.concat "" (List.map string_of_int digits) in
      let s = if s = "" then "0" else s in
      bi (if neg then "-" ^ s else s))
    QCheck.(pair bool (list_of_size (Gen.int_range 1 40) (int_range 0 9)))

let prop name ?(count = 300) gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let properties =
  [
    prop "add commutative" (QCheck.pair arb_bigint arb_bigint) (fun (a, b) ->
        B.equal (B.add a b) (B.add b a));
    prop "add associative" (QCheck.triple arb_bigint arb_bigint arb_bigint) (fun (a, b, c) ->
        B.equal (B.add (B.add a b) c) (B.add a (B.add b c)));
    prop "mul commutative" (QCheck.pair arb_bigint arb_bigint) (fun (a, b) ->
        B.equal (B.mul a b) (B.mul b a));
    prop "distributivity" (QCheck.triple arb_bigint arb_bigint arb_bigint) (fun (a, b, c) ->
        B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)));
    prop "sub inverse of add" (QCheck.pair arb_bigint arb_bigint) (fun (a, b) ->
        B.equal a (B.sub (B.add a b) b));
    prop "divmod reconstruction" (QCheck.pair arb_bigint arb_bigint) (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = divmod a b in
        B.equal a (B.add (B.mul q b) r) && B.compare (B.abs r) (B.abs b) < 0);
    prop "string roundtrip" arb_bigint (fun a -> B.equal a (bi (B.to_string a)));
    prop "gcd divides both" (QCheck.pair arb_bigint arb_bigint) (fun (a, b) ->
        QCheck.assume (not (B.is_zero a) || not (B.is_zero b));
        let g = B.gcd a b in
        B.is_zero (B.rem a g) && B.is_zero (B.rem b g));
    prop "gcd matches euclid" (QCheck.pair arb_bigint arb_bigint) (fun (a, b) ->
        let rec euclid a b = if B.is_zero b then B.abs a else euclid b (B.rem a b) in
        B.equal (B.gcd a b) (euclid a b));
    prop "shift_left equals mul pow2"
      (QCheck.pair arb_bigint (QCheck.int_range 0 100))
      (fun (a, k) -> B.equal (B.shift_left a k) (B.mul a (B.pow2 k)));
    prop "compare antisymmetric" (QCheck.pair arb_bigint arb_bigint) (fun (a, b) ->
        B.compare a b = -B.compare b a);
    prop "num_bits bounds value" arb_bigint (fun a ->
        let b = B.num_bits a in
        B.compare (B.abs a) (B.pow2 b) < 0 && (b = 0 || B.compare (B.abs a) (B.pow2 (b - 1)) >= 0));
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("of_int roundtrip", test_of_int_roundtrip);
      ("to_string small", test_to_string_small);
      ("of_string roundtrip", test_of_string_roundtrip);
      ("of_string signs and errors", test_of_string_signs);
      ("add with carries", test_add_carries);
      ("sub with borrows", test_sub);
      ("mul", test_mul);
      ("divmod exact", test_divmod_exact);
      ("divmod truncation", test_divmod_truncation);
      ("division by zero", test_div_by_zero);
      ("pow", test_pow);
      ("pow2 and shifts", test_pow2_shift);
      ("gcd", test_gcd);
      ("compare", test_compare);
      ("num_bits", test_num_bits);
      ("to_float", test_to_float);
      ("to_int overflow", test_to_int_overflow);
    ]
  @ properties
