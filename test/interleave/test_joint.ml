module J = Memrel_interleave.Joint
module IA = Memrel_interleave.Analytic
module Model = Memrel_memmodel.Model
module Rng = Memrel_prob.Rng
module Q = Memrel_prob.Rational

let in_ci (e : J.estimate) v slack = e.ci.lo -. slack <= v && v <= e.ci.hi +. slack

let test_sc_n2 () =
  let rng = Rng.create 1 in
  let e = J.estimate ~trials:150_000 Model.sc ~n:2 rng in
  Alcotest.(check bool)
    (Printf.sprintf "1/6 in [%f, %f]" e.ci.lo e.ci.hi)
    true
    (in_ci e (1.0 /. 6.0) 0.002)

let test_wo_n2 () =
  let rng = Rng.create 2 in
  let e = J.estimate ~trials:150_000 (Model.wo ()) ~n:2 rng in
  Alcotest.(check bool) "7/54" true (in_ci e (7.0 /. 54.0) 0.002)

let test_tso_n2 () =
  let rng = Rng.create 3 in
  let e = J.estimate ~trials:150_000 (Model.tso ()) ~n:2 rng in
  let lo, hi = IA.pr_a_n2_tso_bounds in
  Alcotest.(check bool) "within paper bracket (plus noise)" true
    (e.pr_no_bug > Q.to_float lo -. 0.005 && e.pr_no_bug < Q.to_float hi +. 0.005);
  Alcotest.(check bool) "matches series" true (in_ci e (IA.pr_a_n2_tso_series ()) 0.002)

let test_wo_n3_exact () =
  let rng = Rng.create 4 in
  let e = J.estimate ~trials:400_000 (Model.wo ()) ~n:3 rng in
  Alcotest.(check bool) "exact n=3 in ci" true (in_ci e (Q.to_float (IA.pr_a_wo ~n:3)) 0.0005)

let test_strict_convention_sc () =
  (* the literal Appendix A.3 event: SC windows are two adjacent slots;
     Pr[A] = 1/3 at n = 2 (computed by hand) *)
  let rng = Rng.create 5 in
  let e = J.estimate ~convention:`Strict ~trials:150_000 Model.sc ~n:2 rng in
  Alcotest.(check bool) "1/3" true (in_ci e (1.0 /. 3.0) 0.003)

let test_strict_weaker_than_paper () =
  (* strict overlap is a smaller event, so Pr[A] is larger *)
  let rng = Rng.create 6 in
  List.iter
    (fun model ->
      let p = (J.estimate ~convention:`Paper ~trials:60_000 model ~n:2 rng).pr_no_bug in
      let s = (J.estimate ~convention:`Strict ~trials:60_000 model ~n:2 rng).pr_no_bug in
      Alcotest.(check bool) (Model.name model ^ ": strict >= paper") true (s > p))
    [ Model.sc; Model.tso (); Model.wo () ]

let test_more_threads_more_bugs () =
  let rng = Rng.create 7 in
  let pr n = (J.estimate ~trials:100_000 (Model.tso ()) ~n rng).J.pr_no_bug in
  let p2 = pr 2 and p3 = pr 3 and p4 = pr 4 in
  Alcotest.(check bool) (Printf.sprintf "%.4f > %.4f > %.4f" p2 p3 p4) true (p2 > p3 && p3 > p4)

let test_semi_analytic_sc_exact () =
  (* SC windows are deterministic, so the semi-analytic estimator has zero
     variance and must return the exact value whatever the trial count *)
  let rng = Rng.create 8 in
  for n = 2 to 6 do
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "n=%d" n)
      (Q.to_float (IA.pr_a_sc ~n))
      (J.semi_analytic ~trials:10 Model.sc ~n rng)
  done

let test_semi_analytic_wo () =
  let rng = Rng.create 9 in
  let v = J.semi_analytic ~trials:150_000 (Model.wo ()) ~n:3 rng in
  let exact = Q.to_float (IA.pr_a_wo ~n:3) in
  Alcotest.(check bool)
    (Printf.sprintf "%.6f vs exact %.6f" v exact)
    true
    (Float.abs (v -. exact) /. exact < 0.05)

let test_semi_analytic_tso_correlation () =
  (* shared-program correlation raises Pr[A] above the independence
     approximation for TSO *)
  let rng = Rng.create 10 in
  let corr = J.semi_analytic ~trials:200_000 (Model.tso ()) ~n:4 rng in
  let indep = IA.pr_a_tso_independent_series ~n:4 in
  Alcotest.(check bool)
    (Printf.sprintf "correlated %.3e > independent %.3e" corr indep)
    true (corr > indep)

let test_sample_determinism () =
  let run () =
    let rng = Rng.create 77 in
    List.init 50 (fun _ -> J.sample (Model.tso ()) ~n:3 rng)
  in
  Alcotest.(check (list bool)) "same seed same outcomes" (run ()) (run ())

let test_jobs_invariance () =
  (* Par contract at the joined-model level: estimate and the float-summing
     semi_analytic are bit-identical at jobs:1 and jobs:4 *)
  let est jobs = J.estimate ~jobs ~trials:15_000 (Model.tso ()) ~n:2 (Rng.create 301) in
  let e1 = est 1 and e4 = est 4 in
  Alcotest.(check (float 0.0)) "pr_no_bug identical" e1.pr_no_bug e4.pr_no_bug;
  Alcotest.(check (float 0.0)) "ci.lo identical" e1.ci.lo e4.ci.lo;
  let semi jobs = J.semi_analytic ~jobs ~trials:15_000 (Model.wo ()) ~n:3 (Rng.create 303) in
  Alcotest.(check bool) "semi_analytic bitwise" true
    (Int64.equal (Int64.bits_of_float (semi 1)) (Int64.bits_of_float (semi 4)))

let test_guards () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "n=1" (Invalid_argument "Joint: n >= 2 threads required") (fun () ->
      ignore (J.sample Model.sc ~n:1 rng));
  Alcotest.check_raises "trials=0" (Invalid_argument "Joint.estimate: trials must be positive")
    (fun () -> ignore (J.estimate ~trials:0 Model.sc ~n:2 rng))

(* -- streaming path vs the closure-based oracle ---------------------------- *)

module Par = Memrel_prob.Par

let test_streaming_equals_reference () =
  (* the fused per-trial worker (scratch settle + in-place shift check)
     replays [sample]'s draw sequence exactly, under both conventions *)
  List.iter
    (fun convention ->
      let s =
        J.estimate ~convention ~jobs:1 ~trials:20_000 (Model.tso ()) ~n:3 (Rng.create 501)
      in
      let r =
        Memrel_oracle.Joint.estimate ~convention ~jobs:1 ~trials:20_000 (Model.tso ()) ~n:3
          (Rng.create 501)
      in
      Alcotest.(check bool) "estimate identical" true (s = r))
    [ `Paper; `Strict ];
  let s = J.estimate ~jobs:1 ~trials:20_000 (Model.tso ()) ~n:2 (Rng.create 20110606) in
  let r = Memrel_oracle.Joint.estimate ~jobs:1 ~trials:20_000 (Model.tso ()) ~n:2 (Rng.create 20110606) in
  Alcotest.(check bool) "estimate identical, n = 2" true (s = r)

let test_semi_analytic_equals_reference () =
  let s = J.semi_analytic ~jobs:1 ~trials:20_000 (Model.wo ()) ~n:4 (Rng.create 503) in
  let r = Memrel_oracle.Joint.semi_analytic ~jobs:1 ~trials:20_000 (Model.wo ()) ~n:4 (Rng.create 503) in
  Alcotest.(check bool) "bitwise identical" true
    (Int64.equal (Int64.bits_of_float s) (Int64.bits_of_float r))

let test_estimate_amortized_alloc () =
  (* end-to-end allocation guard: with per-worker scratch the whole
     estimator amortizes to (well) under two minor words per trial — the
     leftovers are per-chunk engine bookkeeping, not per-trial garbage *)
  let run () = ignore (J.estimate ~jobs:1 ~trials:30_000 (Model.tso ()) ~n:3 (Rng.create 505)) in
  run ();
  let before = Gc.minor_words () in
  run ();
  let words = (Gc.minor_words () -. before) /. 30_000.0 in
  Alcotest.(check bool) (Printf.sprintf "%.3f words/trial < 2.0" words) true (words < 2.0)

let test_adaptive () =
  let run jobs =
    J.estimate_adaptive ~jobs ~target_width:0.02 ~max_trials:1_000_000 Model.sc ~n:2
      (Rng.create 507)
  in
  let s1 = run 1 in
  Alcotest.(check bool) "target met" true s1.Par.target_met;
  Alcotest.(check bool) "stopped early" true (s1.Par.trials_done < 1_000_000);
  let e = s1.Par.value in
  Alcotest.(check bool)
    (Printf.sprintf "width %f <= 0.02" (e.J.ci.hi -. e.J.ci.lo))
    true
    (e.J.ci.hi -. e.J.ci.lo <= 0.02);
  Alcotest.(check bool) "1/6 within the interval" true
    (e.J.ci.lo <= 1.0 /. 6.0 && 1.0 /. 6.0 <= e.J.ci.hi);
  let s4 = run 4 in
  Alcotest.(check int) "same stopping point" s1.Par.trials_done s4.Par.trials_done;
  Alcotest.(check bool) "same point bitwise" true
    (Int64.equal
       (Int64.bits_of_float s1.Par.value.J.pr_no_bug)
       (Int64.bits_of_float s4.Par.value.J.pr_no_bug))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("SC n=2 matches 1/6", test_sc_n2);
      ("WO n=2 matches 7/54", test_wo_n2);
      ("TSO n=2 matches bracket and series", test_tso_n2);
      ("WO n=3 exact", test_wo_n3_exact);
      ("strict convention: SC gives 1/3", test_strict_convention_sc);
      ("strict is weaker event", test_strict_weaker_than_paper);
      ("more threads more bugs", test_more_threads_more_bugs);
      ("semi-analytic exact for SC", test_semi_analytic_sc_exact);
      ("semi-analytic WO", test_semi_analytic_wo);
      ("semi-analytic TSO correlation positive", test_semi_analytic_tso_correlation);
      ("deterministic sampling", test_sample_determinism);
      ("jobs:1 = jobs:4 bit-identical", test_jobs_invariance);
      ("guards", test_guards);
      ("streaming = Reference (bitwise, both conventions)", test_streaming_equals_reference);
      ("semi-analytic streaming = Reference (bitwise)", test_semi_analytic_equals_reference);
      ("estimate amortized allocation bound", test_estimate_amortized_alloc);
      ("adaptive reaches width, jobs-invariant", test_adaptive);
    ]
