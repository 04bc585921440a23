module C = Memrel_prob.Combinatorics
module B = Memrel_prob.Bigint

let check_bi msg expected actual = Alcotest.(check string) msg expected (B.to_string actual)

let test_binomial_small () =
  check_bi "C(5,2)" "10" (C.binomial 5 2);
  check_bi "C(0,0)" "1" (C.binomial 0 0);
  check_bi "C(n,0)" "1" (C.binomial 17 0);
  check_bi "C(n,n)" "1" (C.binomial 17 17);
  check_bi "out of range" "0" (C.binomial 5 6);
  check_bi "negative k" "0" (C.binomial 5 (-1))

let test_binomial_large () =
  check_bi "C(50,25)" "126410606437752" (C.binomial 50 25);
  check_bi "C(100,50)" "100891344545564193334812497256" (C.binomial 100 50)

let test_binomial_pascal () =
  for n = 1 to 20 do
    for k = 0 to n do
      let lhs = C.binomial n k in
      let rhs = B.add (C.binomial (n - 1) (k - 1)) (C.binomial (n - 1) k) in
      if not (B.equal lhs rhs) then Alcotest.fail (Printf.sprintf "pascal fails at %d %d" n k)
    done
  done

let test_factorial () =
  check_bi "0!" "1" (C.factorial 0);
  check_bi "5!" "120" (C.factorial 5);
  check_bi "20!" "2432902008176640000" (C.factorial 20);
  check_bi "30!" "265252859812191058636308480000000" (C.factorial 30)

let test_log2_factorial () =
  Alcotest.(check (float 1e-9)) "log2 1! = 0" 0.0 (C.log2_factorial 1);
  Alcotest.(check (float 1e-6)) "log2 10!" (Float.log (3628800.0) /. Float.log 2.0) (C.log2_factorial 10);
  (* against exact factorial via float for n = 25 *)
  Alcotest.(check (float 1e-6)) "log2 25!"
    (Float.log (B.to_float (C.factorial 25)) /. Float.log 2.0)
    (C.log2_factorial 25)

let test_partitions_basic () =
  (* phi(x, y, z): multisets of y positive integers <= z summing to x *)
  check_bi "phi(5,2,4): 1+4, 2+3" "2" (C.partitions_bounded 5 2 4);
  check_bi "phi(6,3,3): 123, 222" "2" (C.partitions_bounded 6 3 3);
  check_bi "phi(4,2,2): 2+2 only" "1" (C.partitions_bounded 4 2 2);
  check_bi "phi(x,y,z) below range" "0" (C.partitions_bounded 1 2 5);
  check_bi "phi(x,y,z) above range" "0" (C.partitions_bounded 11 2 5);
  check_bi "phi(0,0,z)" "1" (C.partitions_bounded 0 0 5);
  check_bi "phi(x,0,z)" "0" (C.partitions_bounded 3 0 5)

let test_partitions_brute_force () =
  (* exhaustive check against direct enumeration for small parameters *)
  let brute x y z =
    (* count nondecreasing sequences of y values in [1,z] summing to x *)
    let count = ref 0 in
    let rec go remaining parts lo =
      if parts = 0 then begin
        if remaining = 0 then incr count
      end
      else
        for v = lo to min z remaining do
          go (remaining - v) (parts - 1) v
        done
    in
    go x y 1;
    !count
  in
  for x = 0 to 14 do
    for y = 0 to 5 do
      for z = 0 to 5 do
        let expected = brute x y z in
        let got = B.to_int (C.partitions_bounded x y z) in
        if expected <> got then
          Alcotest.fail (Printf.sprintf "phi(%d,%d,%d): expected %d got %d" x y z expected got)
      done
    done
  done

let test_partitions_paper_bound () =
  (* the paper's Claim 4.4 relies on phi(delta, q, mu) >= 1 whenever
     q <= delta <= mu q *)
  for q = 1 to 6 do
    for mu = 1 to 6 do
      for delta = q to mu * q do
        if B.compare (C.partitions_bounded delta q mu) B.one < 0 then
          Alcotest.fail (Printf.sprintf "phi(%d,%d,%d) < 1" delta q mu)
      done
    done
  done

let test_permutations () =
  Alcotest.(check int) "0! = 1 perm" 1 (List.length (C.permutations 0));
  Alcotest.(check int) "3! perms" 6 (List.length (C.permutations 3));
  Alcotest.(check int) "5! perms" 120 (List.length (C.permutations 5));
  (* all distinct *)
  let ps = C.permutations 4 in
  let uniq = List.sort_uniq compare ps in
  Alcotest.(check int) "all distinct" 24 (List.length uniq);
  (* each is a permutation of 0..3 *)
  List.iter
    (fun p ->
      let s = Array.copy p in
      Array.sort compare s;
      Alcotest.(check (array int)) "valid" [| 0; 1; 2; 3 |] s)
    ps

let test_permutations_guard () =
  Alcotest.check_raises "degree > 9 rejected"
    (Invalid_argument "Combinatorics: permutation degree must be in [0, 9]") (fun () ->
      ignore (C.permutations 10))

let test_fold_permutations_sum () =
  (* sum over permutations of first element = (n-1)! * sum of values *)
  let total = C.fold_permutations (fun acc p -> acc + p.(0)) 0 4 in
  Alcotest.(check int) "sum of firsts" (6 * (0 + 1 + 2 + 3)) total

let test_cache_hammer () =
  (* the memo tables are shared across Par domains; hammer them from
     several domains at once on overlapping keys and check every domain
     sees the same answers a cold sequential run produces. Before the
     caches were mutex-guarded this could corrupt the Hashtbl buckets
     (lost bindings, or a crash on a torn resize). *)
  let workload () =
    let acc = ref B.zero in
    for _rep = 1 to 25 do
      for x = 0 to 30 do
        acc := B.add !acc (C.partitions_bounded (20 + x) 6 9);
        acc := B.add !acc (C.binomial (40 + (x mod 7)) (9 + (x mod 5)))
      done
    done;
    B.to_string !acc
  in
  C.clear_caches ();
  let expected = workload () in
  C.clear_caches ();
  let domains = Array.init 4 (fun _ -> Domain.spawn workload) in
  Array.iteri
    (fun i d ->
      let got = Domain.join d in
      if not (String.equal got expected) then
        Alcotest.fail (Printf.sprintf "domain %d: expected %s got %s" i expected got))
    domains;
  let s = C.cache_stats () in
  Alcotest.(check bool) "partition cache populated" true (s.C.partition_entries > 0);
  Alcotest.(check bool) "binomial cache populated" true (s.C.binomial_entries > 0);
  Alcotest.(check bool) "hits recorded under contention" true
    (s.C.partition_hits > 0 && s.C.binomial_hits > 0)

let test_cache_stats_accounting () =
  C.clear_caches ();
  let s0 = C.cache_stats () in
  Alcotest.(check int) "cleared entries" 0 (s0.C.binomial_entries + s0.C.partition_entries);
  ignore (C.binomial 40 17);
  ignore (C.binomial 40 17);
  ignore (C.binomial 40 23) (* = C(40,17) after symmetry normalization *);
  let s1 = C.cache_stats () in
  Alcotest.(check int) "one miss" 1 s1.C.binomial_misses;
  Alcotest.(check int) "two hits" 2 s1.C.binomial_hits;
  (* above the cap nothing is memoized *)
  ignore (C.binomial 600 3);
  let s2 = C.cache_stats () in
  Alcotest.(check int) "capped n bypasses cache" s1.C.binomial_misses s2.C.binomial_misses

let prop name ?(count = 200) gen f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count gen f)

let properties =
  [
    prop "binomial symmetry" QCheck.(pair (int_range 0 60) (int_range 0 60)) (fun (n, k) ->
        QCheck.assume (k <= n);
        B.equal (C.binomial n k) (C.binomial n (n - k)));
    prop "row sums to 2^n" QCheck.(int_range 0 40) (fun n ->
        let sum = ref B.zero in
        for k = 0 to n do
          sum := B.add !sum (C.binomial n k)
        done;
        B.equal !sum (B.pow2 n));
    prop "partitions bounded by unbounded stars-and-bars"
      QCheck.(triple (int_range 0 20) (int_range 1 6) (int_range 1 8))
      (fun (x, y, z) ->
        (* phi(x,y,z) <= compositions-ish loose bound C(x-1, y-1) for x >= y *)
        QCheck.assume (x >= y);
        B.compare (C.partitions_bounded x y z) (C.binomial (x - 1) (y - 1)) <= 0);
  ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("binomial small", test_binomial_small);
      ("binomial large", test_binomial_large);
      ("binomial pascal identity", test_binomial_pascal);
      ("factorial", test_factorial);
      ("log2_factorial", test_log2_factorial);
      ("partitions basic", test_partitions_basic);
      ("partitions vs brute force", test_partitions_brute_force);
      ("partitions paper bound phi >= 1", test_partitions_paper_bound);
      ("permutations", test_permutations);
      ("permutations guard", test_permutations_guard);
      ("fold_permutations", test_fold_permutations_sum);
      ("cache hammer across domains", test_cache_hammer);
      ("cache stats accounting", test_cache_stats_accounting);
    ]
  @ properties
