(* Differential tests pinning the fixnum fast path to the seed
   implementation kept in the oracle library: Bigint vs Bigint_reference
   and Rational vs Rational_reference on randomized mixed small / boundary
   / multi-limb operands from the deterministic Rng, plus pinned exact values for the
   paper's Figure 1/2 DP outputs so numeric results stay bit-identical to
   the seed across representation changes. *)

module B = Memrel_prob.Bigint
module BR = Memrel_oracle.Bigint_reference
module Q = Memrel_prob.Rational
module QRef = Memrel_oracle.Rational_reference
module Rng = Memrel_prob.Rng
module DQ = Memrel_settling.Exact_dp_q
module JQ = Memrel_settling.Joint_dp_q
module SE = Memrel_shift.Exact

let fail_at what i a b fast reference =
  Alcotest.fail
    (Printf.sprintf "%s diverges at %d on (%s, %s): fast %s, reference %s" what i a b fast
       reference)

(* one decimal operand string drawn from the mixed regime: mostly
   native-fitting, with sign/boundary/multi-limb cases mixed in *)
let operand rng =
  match Rng.int rng 12 with
  | 0 ->
    (* multi-limb: 20-80 digits *)
    let k = 20 + Rng.int rng 61 in
    let s = String.init k (fun i -> Char.chr (Char.code '0' + if i = 0 then 1 + Rng.int rng 9 else Rng.int rng 10)) in
    if Rng.bool rng then "-" ^ s else s
  | 1 ->
    (* native boundary: max_int - k or min_int + k *)
    if Rng.bool rng then string_of_int (max_int - Rng.int rng 3)
    else string_of_int (min_int + Rng.int rng 3)
  | 2 ->
    (* just past the native boundary: |v| in [2^62, 2^62 + 2] *)
    let v = BR.add (BR.of_int max_int) (BR.of_int (1 + Rng.int rng 2)) in
    BR.to_string (if Rng.bool rng then BR.neg v else v)
  | 3 -> string_of_int (Rng.int rng 3 - 1) (* -1, 0, 1 *)
  | 4 -> string_of_int ((1 lsl Rng.int rng 62) * if Rng.bool rng then 1 else -1)
  | _ ->
    (* the DP regime: small *)
    string_of_int (Rng.int rng 2_000_001 - 1_000_000)

let test_bigint_differential () =
  let rng = Rng.create 0x1517 in
  for i = 1 to 30_000 do
    let sa = operand rng and sb = operand rng in
    let a = B.of_string sa and b = B.of_string sb in
    let ra = BR.of_string sa and rb = BR.of_string sb in
    let check what fast reference =
      if not (String.equal fast reference) then fail_at what i sa sb fast reference
    in
    check "to_string a" (B.to_string a) (BR.to_string ra);
    check "add" (B.to_string (B.add a b)) (BR.to_string (BR.add ra rb));
    check "sub" (B.to_string (B.sub a b)) (BR.to_string (BR.sub ra rb));
    check "mul" (B.to_string (B.mul a b)) (BR.to_string (BR.mul ra rb));
    check "gcd" (B.to_string (B.gcd a b)) (BR.to_string (BR.gcd ra rb));
    check "succ" (B.to_string (B.succ a)) (BR.to_string (BR.succ ra));
    check "pred" (B.to_string (B.pred a)) (BR.to_string (BR.pred ra));
    check "neg/abs" (B.to_string (B.neg (B.abs a))) (BR.to_string (BR.neg (BR.abs ra)));
    if not (B.is_zero b) then begin
      let q, r = (B.div a b, B.rem a b) and rq, rr = BR.divmod ra rb in
      check "div" (B.to_string q) (BR.to_string rq);
      check "rem" (B.to_string r) (BR.to_string rr)
    end;
    let k = Rng.int rng 70 in
    check "shift_left" (B.to_string (B.shift_left a k)) (BR.to_string (BR.shift_left ra k));
    check "shift_right" (B.to_string (B.shift_right a k)) (BR.to_string (BR.shift_right ra k));
    if Stdlib.compare (B.compare a b) (BR.compare ra rb) <> 0 then
      fail_at "compare" i sa sb
        (string_of_int (B.compare a b))
        (string_of_int (BR.compare ra rb));
    (match (B.to_int_opt a, BR.to_int_opt ra) with
     | Some x, Some y when x = y -> ()
     | None, None -> ()
     | _ -> fail_at "to_int_opt" i sa sb "<opt>" "<opt>");
    if B.num_bits a <> BR.num_bits ra then
      fail_at "num_bits" i sa sb (string_of_int (B.num_bits a)) (string_of_int (BR.num_bits ra))
  done

let test_bigint_pow_differential () =
  let rng = Rng.create 0x9e37 in
  for i = 1 to 2_000 do
    let sa = string_of_int (Rng.int rng 20_001 - 10_000) in
    let e = Rng.int rng 12 in
    let fast = B.to_string (B.pow (B.of_string sa) e) in
    let reference = BR.to_string (BR.pow (BR.of_string sa) e) in
    if not (String.equal fast reference) then fail_at "pow" i sa (string_of_int e) fast reference
  done

let test_bigint_edge_cases () =
  let check msg expected actual = Alcotest.(check string) msg expected (B.to_string actual) in
  (* min_int is excluded from the small representation: all of these must
     promote/demote without wrapping *)
  check "of_int min_int" (string_of_int min_int) (B.of_int min_int);
  check "abs min_int" (BR.to_string (BR.abs (BR.of_int min_int))) (B.abs (B.of_int min_int));
  check "neg min_int" (BR.to_string (BR.neg (BR.of_int min_int))) (B.neg (B.of_int min_int));
  check "max_int + 1" (BR.to_string (BR.succ (BR.of_int max_int))) (B.succ (B.of_int max_int));
  check "min_int - 1" (BR.to_string (BR.pred (BR.of_int min_int))) (B.pred (B.of_int min_int));
  check "(max_int+1) - 1 demotes" (string_of_int max_int)
    (B.pred (B.succ (B.of_int max_int)));
  check "min_int / -1" (BR.to_string (BR.div (BR.of_int min_int) (BR.of_int (-1))))
    (B.div (B.of_int min_int) (B.of_int (-1)));
  check "min_int * -1" (BR.to_string (BR.mul (BR.of_int min_int) (BR.of_int (-1))))
    (B.mul (B.of_int min_int) (B.of_int (-1)));
  Alcotest.(check (option int)) "to_int_opt max_int" (Some max_int)
    (B.to_int_opt (B.of_int max_int));
  (* min_int never round-trips (matches the seed behaviour: 63 magnitude
     bits exceed the 62-bit conversion guard) *)
  Alcotest.(check (option int)) "to_int_opt min_int" None (B.to_int_opt (B.of_int min_int));
  Alcotest.(check (option int)) "to_int_opt 2^62" None (B.to_int_opt (B.pow2 62));
  Alcotest.(check int) "num_bits max_int" 62 (B.num_bits (B.of_int max_int));
  Alcotest.check_raises "of_string empty" (Invalid_argument "Bigint.of_string: empty string")
    (fun () -> ignore (B.of_string ""));
  Alcotest.check_raises "of_string junk" (Invalid_argument "Bigint.of_string: invalid digit")
    (fun () -> ignore (B.of_string "12x3"));
  Alcotest.check_raises "of_string lone sign" (Invalid_argument "Bigint.of_string: no digits")
    (fun () -> ignore (B.of_string "-"));
  Alcotest.check_raises "pow negative" (Invalid_argument "Bigint.pow: negative exponent")
    (fun () -> ignore (B.pow B.two (-1)))

(* one rational from the DP regime: dyadic denominators dominate, 3^k and
   arbitrary denominators keep the gcd paths honest *)
let rational_parts rng =
  let num = Rng.int rng 8_193 - 4_096 in
  let den =
    match Rng.int rng 6 with
    | 0 -> int_of_float (3.0 ** float_of_int (1 + Rng.int rng 8))
    | 1 -> 1 + Rng.int rng 10_000
    | _ -> 1 lsl Rng.int rng 12
  in
  (num, den)

let test_rational_differential () =
  let rng = Rng.create 0x2b7e in
  for i = 1 to 20_000 do
    let na, da = rational_parts rng and nb, db = rational_parts rng in
    let a = Q.of_ints na da and b = Q.of_ints nb db in
    let ra = QRef.of_ints na da and rb = QRef.of_ints nb db in
    let ctx = Printf.sprintf "%d/%d" na da and ctx2 = Printf.sprintf "%d/%d" nb db in
    let check what fast reference =
      if not (String.equal fast reference) then fail_at what i ctx ctx2 fast reference
    in
    check "q.to_string" (Q.to_string a) (QRef.to_string ra);
    check "q.add" (Q.to_string (Q.add a b)) (QRef.to_string (QRef.add ra rb));
    check "q.sub" (Q.to_string (Q.sub a b)) (QRef.to_string (QRef.sub ra rb));
    check "q.mul" (Q.to_string (Q.mul a b)) (QRef.to_string (QRef.mul ra rb));
    if not (Q.is_zero b) then
      check "q.div" (Q.to_string (Q.div a b)) (QRef.to_string (QRef.div ra rb));
    check "q.pow" (Q.to_string (Q.pow a 3)) (QRef.to_string (QRef.pow ra 3));
    if Stdlib.compare (Q.compare a b) (QRef.compare ra rb) <> 0 then
      fail_at "q.compare" i ctx ctx2
        (string_of_int (Q.compare a b))
        (string_of_int (QRef.compare ra rb))
  done

let test_rational_dyadic_differential () =
  (* of_float_dyadic and to_float agree with the seed bit for bit *)
  let rng = Rng.create 0x6a09 in
  for i = 1 to 5_000 do
    let f = Float.ldexp (Rng.float rng -. 0.5) (Rng.int rng 40 - 20) in
    let fast = Q.to_string (Q.of_float_dyadic f) in
    let reference = QRef.to_string (QRef.of_float_dyadic f) in
    if not (String.equal fast reference) then
      fail_at "of_float_dyadic" i (string_of_float f) "" fast reference;
    let rf = Q.to_float (Q.of_float_dyadic f) and rr = QRef.to_float (QRef.of_float_dyadic f) in
    if not (Float.equal rf rr) then
      fail_at "to_float" i (string_of_float f) "" (string_of_float rf) (string_of_float rr)
  done

(* -- pinned Figure 1/2 exact DP outputs (bit-identical to the seed) ----- *)

let q_pin msg expected actual = Alcotest.(check string) msg expected (Q.to_string actual)

let test_pinned_settling_dp () =
  let pmf = DQ.gamma_pmf (DQ.tso ()) ~m:8 in
  List.iter
    (fun (g, expected) -> q_pin (Printf.sprintf "tso m=8 gamma=%d" g) expected (List.assoc g pmf))
    [
      (0, "43691/65536");
      (1, "998665/4194304");
      (2, "4687189/67108864");
      (3, "5058537/268435456");
      (4, "41021/8388608");
      (5, "334135/268435456");
      (6, "20987/67108864");
      (7, "319/4194304");
      (8, "1/65536");
    ];
  let wo_pmf = DQ.gamma_pmf (DQ.wo ()) ~m:8 in
  List.iter
    (fun (g, expected) -> q_pin (Printf.sprintf "wo m=8 gamma=%d" g) expected (List.assoc g wo_pmf))
    [ (0, "43691/65536"); (1, "10923/65536"); (2, "2731/32768"); (3, "683/16384") ];
  q_pin "bottom_st tso m=8" "21845/32768" (DQ.bottom_st_probability (DQ.tso ()) ~m:8)

let test_pinned_shift_exact () =
  q_pin "figure-2 gammas (3,2,5)" "17/24576" (SE.disjoint_probability [| 3; 2; 5 |]);
  q_pin "gammas (2,2)" "1/6" (SE.disjoint_probability [| 2; 2 |]);
  q_pin "gammas (1,2,3,4)" "719/66060288" (SE.disjoint_probability [| 1; 2; 3; 4 |]);
  q_pin "geom q=3/4 (2,2,2)" "59049/530432"
    (SE.disjoint_probability_geom ~q:(Q.of_ints 3 4) [| 2; 2; 2 |]);
  q_pin "c 5" "32768/9765" (SE.c 5);
  q_pin "c 8" "68719476736/19923090075" (SE.c 8)

let test_pinned_combinatorics () =
  let module C = Memrel_prob.Combinatorics in
  Alcotest.(check string) "phi(20,5,8)" "46" (B.to_string (C.partitions_bounded 20 5 8));
  Alcotest.(check string) "phi(60,10,12)" "9160" (B.to_string (C.partitions_bounded 60 10 12));
  Alcotest.(check string) "C(64,28)" "1118770292985239888" (B.to_string (C.binomial 64 28))

let test_stats_counters () =
  B.reset_stats ();
  Q.reset_stats ();
  let s0 = B.stats () in
  Alcotest.(check int) "reset zeroes small" 0 s0.B.small_ops;
  Alcotest.(check (float 0.0)) "empty hit rate is 1" 1.0 (B.small_hit_rate s0);
  ignore (B.add (B.of_int 1) (B.of_int 2));
  ignore (B.mul (B.of_int max_int) (B.of_int max_int));
  let s1 = B.stats () in
  Alcotest.(check bool) "small op counted" true (s1.B.small_ops >= 1);
  Alcotest.(check bool) "promotion counted" true (s1.B.promotions >= 1);
  let rate = B.small_hit_rate s1 in
  Alcotest.(check bool) "hit rate in [0,1]" true (rate >= 0.0 && rate <= 1.0);
  ignore (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  ignore (Q.mul (Q.of_ints 2 3) (Q.of_ints 3 2));
  let r = Q.stats () in
  Alcotest.(check bool) "rational adds counted" true (r.Q.adds >= 1);
  Alcotest.(check bool) "rational muls counted" true (r.Q.muls >= 1);
  Alcotest.(check bool) "coprime add seen" true (r.Q.add_coprime >= 1)

let test_joint_dp_q_reference_agreement () =
  (* the exact joint DP agrees with its Reference-instantiated twin *)
  let module JR = JQ.Make (QRef) in
  let fast =
    Q.to_string
      (JQ.expect_product ~b_max:5 ~s:Q.half Memrel_memmodel.Model.Total_store_order ~m:6 ~n:2)
  in
  let reference =
    QRef.to_string
      (JR.expect_product ~b_max:5 ~s:QRef.half Memrel_memmodel.Model.Total_store_order ~m:6
         ~n:2)
  in
  Alcotest.(check string) "joint_dp_q fast = reference" reference fast

(* the exact bench's DP and partition workloads at its smoke and full
   sizes: the same functorized code over both arithmetics, digit for digit *)
let test_bench_workloads_agree () =
  let module DR = DQ.Make (QRef) in
  let module JR = JQ.Make (QRef) in
  let module SR = SE.Make (QRef) in
  let module CR = Memrel_oracle.Combinatorics_reference in
  let same what fast reference = Alcotest.(check string) what reference fast in
  let pmf to_s l = String.concat ";" (List.map (fun (g, p) -> Printf.sprintf "%d:%s" g (to_s p)) l) in
  let tso = Memrel_memmodel.Model.Total_store_order in
  List.iter
    (fun (m_tso, m_wo, (joint_n, joint_m, joint_b), shift_n, geom_n, phi_sizes) ->
      same
        (Printf.sprintf "settling DP TSO m=%d" m_tso)
        (pmf Q.to_string (DQ.gamma_pmf (DQ.tso ()) ~m:m_tso))
        (pmf QRef.to_string (DR.gamma_pmf (DR.tso ()) ~m:m_tso));
      same
        (Printf.sprintf "settling DP WO m=%d" m_wo)
        (pmf Q.to_string (DQ.gamma_pmf (DQ.wo ()) ~m:m_wo))
        (pmf QRef.to_string (DR.gamma_pmf (DR.wo ()) ~m:m_wo));
      same
        (Printf.sprintf "joint DP n=%d m=%d b=%d" joint_n joint_m joint_b)
        (Q.to_string (JQ.expect_product ~b_max:joint_b ~s:Q.half tso ~m:joint_m ~n:joint_n))
        (QRef.to_string (JR.expect_product ~b_max:joint_b ~s:QRef.half tso ~m:joint_m ~n:joint_n));
      let gammas = Array.init shift_n (fun i -> 2 + (i mod 3)) in
      same
        (Printf.sprintf "shift exact n=%d" shift_n)
        (Q.to_string (SE.disjoint_probability gammas))
        (QRef.to_string (SR.disjoint_probability gammas));
      let gammas = Array.init geom_n (fun i -> 2 + (i mod 2)) in
      same
        (Printf.sprintf "shift geom n=%d" geom_n)
        (Q.to_string (SE.disjoint_probability_geom ~q:(Q.of_ints 3 4) gammas))
        (QRef.to_string (SR.disjoint_probability_geom ~q:(QRef.of_ints 3 4) gammas));
      List.iter
        (fun (y, z) ->
          for x = y to y * z do
            same
              (Printf.sprintf "phi(%d,%d,%d)" x y z)
              (B.to_string (Memrel_prob.Combinatorics.partitions_bounded x y z))
              (BR.to_string (CR.partitions_bounded x y z))
          done)
        phi_sizes)
    [ (7, 6, (2, 8, 5), 5, 4, [ (6, 8) ]); (10, 9, (3, 16, 8), 7, 5, [ (10, 12); (8, 10) ]) ]

let suite =
  [
    Alcotest.test_case "bigint differential vs reference" `Quick test_bigint_differential;
    Alcotest.test_case "bigint pow differential" `Quick test_bigint_pow_differential;
    Alcotest.test_case "bigint boundary edge cases" `Quick test_bigint_edge_cases;
    Alcotest.test_case "rational differential vs reference" `Quick test_rational_differential;
    Alcotest.test_case "rational dyadic differential" `Quick test_rational_dyadic_differential;
    Alcotest.test_case "pinned settling DP values" `Quick test_pinned_settling_dp;
    Alcotest.test_case "pinned shift exact values" `Quick test_pinned_shift_exact;
    Alcotest.test_case "pinned combinatorics values" `Quick test_pinned_combinatorics;
    Alcotest.test_case "stats counters" `Quick test_stats_counters;
    Alcotest.test_case "joint_dp_q fast = reference" `Quick test_joint_dp_q_reference_agreement;
    Alcotest.test_case "exact bench workloads: fast = reference" `Quick
      test_bench_workloads_agree;
  ]
