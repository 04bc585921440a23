module P = Memrel_shift.Process
module Rng = Memrel_prob.Rng

let test_disjoint_basic () =
  Alcotest.(check bool) "separated" true
    (P.disjoint ~shifts:[| 0; 5 |] ~gammas:[| 3; 2 |]);
  Alcotest.(check bool) "overlapping" false
    (P.disjoint ~shifts:[| 0; 2 |] ~gammas:[| 3; 2 |]);
  Alcotest.(check bool) "touching endpoints overlap" false
    (P.disjoint ~shifts:[| 0; 3 |] ~gammas:[| 3; 2 |]);
  Alcotest.(check bool) "adjacent slots disjoint" true
    (P.disjoint ~shifts:[| 0; 4 |] ~gammas:[| 3; 2 |])

let test_disjoint_zero_length () =
  (* zero-length segments occupy one slot; equal shifts collide *)
  Alcotest.(check bool) "same point" false (P.disjoint ~shifts:[| 2; 2 |] ~gammas:[| 0; 0 |]);
  Alcotest.(check bool) "neighbors ok" true (P.disjoint ~shifts:[| 2; 3 |] ~gammas:[| 0; 0 |])

let test_disjoint_unsorted_input () =
  (* order of segments must not matter *)
  Alcotest.(check bool) "reversed" true (P.disjoint ~shifts:[| 5; 0 |] ~gammas:[| 2; 3 |]);
  Alcotest.(check bool) "reversed collide" false (P.disjoint ~shifts:[| 2; 0 |] ~gammas:[| 2; 3 |])

let test_disjoint_three () =
  (* The paper's Figure 2 instance (gammas (3,2,5), shifts (8,0,2)) has
     segments [0,2] and [2,7] touching at slot 2. Figure 2 calls this
     disjoint, but Theorem 5.1's algebra — which this module implements and
     which brute-force enumeration confirms — requires strict separation,
     so under the theorem's convention A is violated. The half-open reading
     the figure uses corresponds to closed segments one shorter. *)
  Alcotest.(check bool) "figure 2 instance violates A under Theorem 5.1" false
    (P.disjoint ~shifts:[| 8; 0; 2 |] ~gammas:[| 3; 2; 5 |]);
  Alcotest.(check bool) "figure 2 instance disjoint under the half-open reading" true
    (P.disjoint ~shifts:[| 8; 0; 2 |] ~gammas:[| 2; 1; 4 |]);
  Alcotest.(check bool) "well-separated variant is disjoint" true
    (P.disjoint ~shifts:[| 8; 0; 3 |] ~gammas:[| 3; 2; 4 |])

let test_mismatch () =
  Alcotest.check_raises "length mismatch" (Invalid_argument "Process.disjoint: length mismatch")
    (fun () -> ignore (P.disjoint ~shifts:[| 1 |] ~gammas:[| 1; 2 |]))

let test_sample_fields () =
  let rng = Rng.create 1 in
  let s = P.sample rng [| 2; 3 |] in
  Alcotest.(check int) "two shifts" 2 (Array.length s.shifts);
  Array.iter (fun v -> Alcotest.(check bool) "nonnegative" true (v >= 0)) s.shifts;
  Alcotest.(check bool) "flag consistent" (P.disjoint ~shifts:s.shifts ~gammas:[| 2; 3 |])
    s.disjoint

let test_sample_negative_length () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "negative gamma" (Invalid_argument "Process.sample: negative segment length")
    (fun () -> ignore (P.sample rng [| -1 |]))

let test_estimate_n2_closed_form () =
  (* Pr[A(g1,g2)] = (2^-g1 + 2^-g2)/3 *)
  let rng = Rng.create 42 in
  List.iter
    (fun (g1, g2) ->
      let expected = (Float.pow 2.0 (float_of_int (-g1)) +. Float.pow 2.0 (float_of_int (-g2))) /. 3.0 in
      let est, ci = P.estimate ~trials:200_000 rng [| g1; g2 |] in
      if not (ci.lo -. 0.002 <= expected && expected <= ci.hi +. 0.002) then
        Alcotest.fail (Printf.sprintf "(%d,%d): est %f vs %f" g1 g2 est expected))
    [ (0, 0); (1, 1); (2, 2); (0, 3) ]

let test_single_segment_always_disjoint () =
  let rng = Rng.create 7 in
  let est, _ = P.estimate ~trials:1000 rng [| 5 |] in
  Alcotest.(check (float 0.0)) "trivially disjoint" 1.0 est

let test_jobs_invariance () =
  (* Par contract: estimate and estimate_geom bit-identical at jobs:1/jobs:4 *)
  let run jobs = P.estimate ~jobs ~trials:25_000 (Rng.create 401) [| 2; 3; 2 |] in
  let (e1, ci1) = run 1 and (e4, ci4) = run 4 in
  Alcotest.(check (float 0.0)) "estimate identical" e1 e4;
  Alcotest.(check (float 0.0)) "ci identical" ci1.lo ci4.lo;
  let rung jobs = P.estimate_geom ~jobs ~q:0.75 ~trials:25_000 (Rng.create 403) [| 2; 2 |] in
  let (g1, _) = rung 1 and (g4, _) = rung 4 in
  Alcotest.(check (float 0.0)) "estimate_geom identical" g1 g4

let prop_disjoint_permutation_invariant =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"disjointness invariant under segment relabeling" ~count:300
       QCheck.(pair (list_of_size (Gen.int_range 2 5) (int_range 0 6))
                 (list_of_size (Gen.int_range 2 5) (int_range 0 10)))
       (fun (gl, sl) ->
         let n = min (List.length gl) (List.length sl) in
         QCheck.assume (n >= 2);
         let g = Array.of_list (List.filteri (fun i _ -> i < n) gl) in
         let s = Array.of_list (List.filteri (fun i _ -> i < n) sl) in
         let d1 = P.disjoint ~shifts:s ~gammas:g in
         (* rotate both arrays together *)
         let rot a = Array.init n (fun i -> a.((i + 1) mod n)) in
         let d2 = P.disjoint ~shifts:(rot s) ~gammas:(rot g) in
         d1 = d2))

let prop_growing_segments_never_create_disjointness =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"growing a segment cannot make an overlapping family disjoint"
       ~count:300
       QCheck.(triple (list_of_size (Gen.int_range 2 4) (int_range 0 5))
                 (list_of_size (Gen.int_range 2 4) (int_range 0 8))
                 (int_range 0 3))
       (fun (gl, sl, extra) ->
         let n = min (List.length gl) (List.length sl) in
         QCheck.assume (n >= 2);
         let g = Array.of_list (List.filteri (fun i _ -> i < n) gl) in
         let s = Array.of_list (List.filteri (fun i _ -> i < n) sl) in
         let g_bigger = Array.map (fun x -> x + extra) g in
         (* monotonicity: disjoint with bigger segments implies disjoint with
            smaller ones *)
         (not (P.disjoint ~shifts:s ~gammas:g_bigger)) || P.disjoint ~shifts:s ~gammas:g))

(* -- streaming path vs reference closures -------------------------------- *)

module Par = Memrel_prob.Par
module Budget = Memrel_prob.Budget

let test_disjoint_scratch_matches () =
  (* the zero-allocation insertion-sort check agrees with the reference
     [disjoint] on random inputs, ties included *)
  let rng = Rng.create 401 in
  for _ = 1 to 5_000 do
    let n = 2 + Rng.int rng 5 in
    let shifts = Array.init n (fun _ -> Rng.int rng 8) in
    let gammas = Array.init n (fun _ -> Rng.int rng 5) in
    let idx = Array.make n 0 in
    Alcotest.(check bool)
      (Printf.sprintf "shifts=[%s] gammas=[%s]"
         (String.concat ";" (Array.to_list (Array.map string_of_int shifts)))
         (String.concat ";" (Array.to_list (Array.map string_of_int gammas))))
      (P.disjoint ~shifts ~gammas)
      (P.disjoint_scratch ~shifts ~idx ~gammas)
  done

let test_streaming_equals_reference () =
  let gammas = [| 2; 3; 1; 2 |] in
  let s = P.estimate ~jobs:1 ~trials:50_000 (Rng.create 403) gammas in
  let r = Memrel_oracle.Shift.estimate ~jobs:1 ~trials:50_000 (Rng.create 403) gammas in
  Alcotest.(check bool) "estimate identical" true (s = r);
  let sg = P.estimate_geom ~jobs:1 ~q:0.3 ~trials:50_000 (Rng.create 405) gammas in
  let rg = Memrel_oracle.Shift.estimate_geom ~jobs:1 ~q:0.3 ~trials:50_000 (Rng.create 405) gammas in
  Alcotest.(check bool) "estimate_geom identical" true (sg = rg);
  let gammas = [| 2; 3; 2; 4 |] in
  let s = P.estimate ~jobs:1 ~trials:50_000 (Rng.create 20110606) gammas in
  let r = Memrel_oracle.Shift.estimate ~jobs:1 ~trials:50_000 (Rng.create 20110606) gammas in
  Alcotest.(check bool) "estimate identical, gammas (2,3,2,4)" true (s = r)

let test_inner_loop_zero_alloc () =
  (* the streaming trial body — n geometric draws + in-place disjointness —
     must not touch the minor heap in steady state *)
  let gammas = [| 2; 3; 1; 2 |] in
  let n = Array.length gammas in
  let shifts = Array.make n 0 and idx = Array.make n 0 in
  let rng = Rng.create 407 in
  let trial () =
    for i = 0 to n - 1 do
      shifts.(i) <- Rng.geometric_half rng
    done;
    ignore (P.disjoint_scratch ~shifts ~idx ~gammas)
  in
  for _ = 1 to 1_000 do trial () done;
  let trials = 20_000 in
  let before = Gc.minor_words () in
  for _ = 1 to trials do trial () done;
  let words = (Gc.minor_words () -. before) /. float_of_int trials in
  Alcotest.(check bool) (Printf.sprintf "%.3f words/trial < 0.5" words) true (words < 0.5)

let test_adaptive () =
  let gammas = [| 2; 3 |] in
  let run jobs =
    P.estimate_adaptive ~jobs ~target_width:0.02 ~max_trials:1_000_000 (Rng.create 409) gammas
  in
  let s1 = run 1 in
  Alcotest.(check bool) "target met" true s1.Par.target_met;
  Alcotest.(check bool) "stopped early" true (s1.Par.trials_done < 1_000_000);
  let _, ci = s1.Par.value in
  Alcotest.(check bool)
    (Printf.sprintf "width %f <= 0.02" (ci.hi -. ci.lo))
    true
    (ci.hi -. ci.lo <= 0.02);
  let s4 = run 4 in
  Alcotest.(check int) "same stopping point" s1.Par.trials_done s4.Par.trials_done;
  let p1, _ = s1.Par.value and p4, _ = s4.Par.value in
  Alcotest.(check bool) "same point bitwise" true
    (Int64.equal (Int64.bits_of_float p1) (Int64.bits_of_float p4));
  (* budget partial: typed, exact prefix, honestly missed target *)
  let b =
    P.estimate_adaptive ~jobs:1
      ~budget:(Budget.create ~max_work:3 ())
      ~target_width:0.0001 ~max_trials:1_000_000 (Rng.create 409) gammas
  in
  Alcotest.(check bool) "exhausted" true (b.Par.exhausted <> None);
  Alcotest.(check bool) "target missed" false b.Par.target_met;
  Alcotest.(check int) "prefix trials" (3 * Par.default_chunk) b.Par.trials_done

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("disjoint basics", test_disjoint_basic);
      ("zero-length segments", test_disjoint_zero_length);
      ("unsorted input", test_disjoint_unsorted_input);
      ("three segments", test_disjoint_three);
      ("length mismatch", test_mismatch);
      ("sample fields", test_sample_fields);
      ("negative length rejected", test_sample_negative_length);
      ("estimate matches n=2 closed form", test_estimate_n2_closed_form);
      ("single segment", test_single_segment_always_disjoint);
      ("jobs:1 = jobs:4 bit-identical", test_jobs_invariance);
      ("disjoint_scratch = disjoint (randomized)", test_disjoint_scratch_matches);
      ("streaming = Reference (bitwise)", test_streaming_equals_reference);
      ("inner loop allocates nothing", test_inner_loop_zero_alloc);
      ("adaptive reaches width, jobs-invariant, budget partial", test_adaptive);
    ]
  @ [ prop_disjoint_permutation_invariant; prop_growing_segments_never_create_disjointness ]
