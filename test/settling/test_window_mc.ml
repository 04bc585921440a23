module Mc = Memrel_settling.Mc
module A = Memrel_settling.Analytic
module W = Memrel_settling.Window
module Settle = Memrel_settling.Settle
module Program = Memrel_settling.Program
module Model = Memrel_memmodel.Model
module Op = Memrel_memmodel.Op
module Rng = Memrel_prob.Rng
module Q = Memrel_prob.Rational

let test_window_gamma_manual () =
  (* identity permutation: adjacent critical pair, gamma = 0 *)
  let prog = Program.of_kinds [ Op.ST; Op.ST; Op.LD ] in
  let pi = Settle.run Model.sc (Rng.create 1) prog in
  Alcotest.(check int) "gamma" 0 (W.gamma prog pi);
  Alcotest.(check int) "length" 2 (W.length prog pi);
  Alcotest.(check (pair int int)) "bounds" (3, 4) (W.bounds prog pi)

let test_window_grows_under_tso () =
  (* a block of STs directly above the critical load can host growth *)
  let prog = Program.of_kinds [ Op.ST; Op.ST; Op.ST ] in
  let rng = Rng.create 5 in
  let seen = Hashtbl.create 8 in
  for _ = 1 to 2000 do
    let pi = Settle.run (Model.tso ()) rng prog in
    Hashtbl.replace seen (W.gamma prog pi) true
  done;
  (* with three STs above, gammas 0..3 are all reachable *)
  for g = 0 to 3 do
    Alcotest.(check bool) (Printf.sprintf "gamma=%d reachable" g) true (Hashtbl.mem seen g)
  done

let test_estimate_sc () =
  let rng = Rng.create 7 in
  let e = Mc.estimate ~trials:2000 Model.sc rng in
  Alcotest.(check (float 0.0)) "all mass at 0" 1.0 (List.assoc 0 e.gamma_pmf);
  Alcotest.(check (float 0.0)) "mean gamma 0" 0.0 e.mean_gamma;
  Alcotest.(check int) "trials recorded" 2000 e.trials

let test_estimate_wo_matches_theorem () =
  let rng = Rng.create 11 in
  let e = Mc.estimate ~trials:100_000 (Model.wo ()) rng in
  for g = 0 to 4 do
    let expected = Q.to_float (A.b_wo g) in
    let got = try List.assoc g e.gamma_pmf with Not_found -> 0.0 in
    if Float.abs (got -. expected) > 0.01 then
      Alcotest.fail (Printf.sprintf "WO gamma=%d: %f vs %f" g got expected)
  done

let test_estimate_tso_matches_series () =
  let rng = Rng.create 13 in
  let e = Mc.estimate ~trials:100_000 (Model.tso ()) rng in
  for g = 0 to 4 do
    let expected = A.b_tso_series g in
    let got = try List.assoc g e.gamma_pmf with Not_found -> 0.0 in
    if Float.abs (got -. expected) > 0.01 then
      Alcotest.fail (Printf.sprintf "TSO gamma=%d: %f vs %f" g got expected)
  done

let test_probability_b_ci () =
  let rng = Rng.create 17 in
  let point, ci = Mc.probability_b ~trials:50_000 ~gamma:0 (Model.wo ()) rng in
  Alcotest.(check bool) "point in ci" true (ci.lo <= point && point <= ci.hi);
  Alcotest.(check bool) "2/3 in ci" true (ci.lo <= 2.0 /. 3.0 && 2.0 /. 3.0 <= ci.hi)

let test_mean_gamma_ordering () =
  (* stricter model, smaller expected window *)
  let mean model seed = (Mc.estimate ~trials:30_000 model (Rng.create seed)).Mc.mean_gamma in
  let sc = mean Model.sc 19 and tso = mean (Model.tso ()) 19 and wo = mean (Model.wo ()) 19 in
  Alcotest.(check bool) (Printf.sprintf "%.3f <= %.3f <= %.3f" sc tso wo) true
    (sc <= tso && tso <= wo)

let test_pso_window_smaller_than_tso () =
  (* footnote 4 omits the PSO analysis; under the settling semantics the
     critical ST can re-absorb the STs the critical LD passed (ST/ST is
     relaxed), so PSO windows are stochastically SMALLER than TSO windows.
     Validate MC against the exact finite-m DP and the ordering. *)
  let rng = Rng.create 23 in
  let pso = Mc.estimate ~trials:60_000 (Model.pso ()) rng in
  let dp = Memrel_settling.Exact_dp.gamma_pmf (Model.pso ()) ~m:16 in
  for g = 0 to 3 do
    let expected = List.assoc g dp in
    let got = try List.assoc g pso.gamma_pmf with Not_found -> 0.0 in
    if Float.abs (got -. expected) > 0.015 then
      Alcotest.fail (Printf.sprintf "PSO gamma=%d: MC %f vs DP %f" g got expected)
  done;
  let pso0 = try List.assoc 0 pso.gamma_pmf with Not_found -> 0.0 in
  Alcotest.(check bool) "PSO gamma=0 mass exceeds TSO's 2/3" true (pso0 > 2.0 /. 3.0)

let test_small_m_truncation_bias () =
  (* with tiny m the window cannot grow beyond m; the estimator should still
     report a valid pmf *)
  let rng = Rng.create 29 in
  let e = Mc.estimate ~m:2 ~trials:5000 (Model.wo ()) rng in
  let mass = List.fold_left (fun a (_, p) -> a +. p) 0.0 e.gamma_pmf in
  Alcotest.(check (float 1e-9)) "mass 1" 1.0 mass;
  List.iter (fun (g, _) -> Alcotest.(check bool) "gamma <= m" true (g <= 2)) e.gamma_pmf

let test_goodness_of_fit_chi2 () =
  (* full-distribution test, not just per-cell comparisons: bin the TSO MC
     histogram against the exact series and run a chi-squared test at the
     1% level *)
  let rng = Rng.create 31 in
  let trials = 120_000 in
  let e = Mc.estimate ~trials (Model.tso ()) rng in
  let cells = 6 in
  let observed = Array.make (cells + 1) 0 in
  List.iter
    (fun (g, c) ->
      let cell = if g >= cells then cells else g in
      observed.(cell) <- observed.(cell) + c)
    e.histogram.bins;
  let expected =
    Array.init (cells + 1) (fun cell ->
        let p =
          if cell < cells then A.b_tso_series cell
          else 1.0 -. Memrel_prob.Series.sum_range A.b_tso_series 0 (cells - 1)
        in
        p *. float_of_int trials)
  in
  let chi2 = Memrel_oracle.Goodness_of_fit.chi_squared ~observed ~expected in
  let threshold = Memrel_oracle.Goodness_of_fit.chi_squared_threshold_99 ~dof:cells in
  Alcotest.(check bool)
    (Printf.sprintf "chi2 %.2f < %.2f (dof %d)" chi2 threshold cells)
    true (chi2 < threshold)

let test_jobs_invariance () =
  (* the Par determinism contract at the estimator level: for a fixed seed,
     jobs:1 and jobs:4 must return bit-identical estimate records, on every
     model family *)
  List.iter
    (fun (name, model) ->
      let est jobs = Mc.estimate ~jobs ~trials:20_000 model (Rng.create 101) in
      let e1 = est 1 and e4 = est 4 in
      Alcotest.(check (list (pair int int))) (name ^ " histogram") e1.Mc.histogram.bins
        e4.Mc.histogram.bins;
      Alcotest.(check int) (name ^ " total") e1.Mc.histogram.total e4.Mc.histogram.total;
      Alcotest.(check bool) (name ^ " mean bitwise") true
        (Int64.equal (Int64.bits_of_float e1.Mc.mean_gamma) (Int64.bits_of_float e4.Mc.mean_gamma));
      List.iter2
        (fun (g1, p1) (g4, p4) ->
          Alcotest.(check int) (name ^ " pmf support") g1 g4;
          Alcotest.(check bool) (name ^ " pmf mass bitwise") true
            (Int64.equal (Int64.bits_of_float p1) (Int64.bits_of_float p4)))
        e1.Mc.gamma_pmf e4.Mc.gamma_pmf)
    [ ("SC", Model.sc); ("TSO", Model.tso ()); ("WO", Model.wo ()) ]

let test_probability_b_jobs_invariance () =
  let run jobs = Mc.probability_b ~jobs ~trials:20_000 ~gamma:1 (Model.tso ()) (Rng.create 103) in
  let (p1, ci1) = run 1 and (p4, ci4) = run 4 in
  Alcotest.(check (float 0.0)) "point identical" p1 p4;
  Alcotest.(check (float 0.0)) "ci.lo identical" ci1.lo ci4.lo;
  Alcotest.(check (float 0.0)) "ci.hi identical" ci1.hi ci4.hi

let test_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "trials 0" (Invalid_argument "Mc.estimate: trials must be positive")
    (fun () -> ignore (Mc.estimate ~trials:0 Model.sc rng))

module Par = Memrel_prob.Par
module Budget = Memrel_prob.Budget

let test_governed_complete_equals_estimate () =
  (* a governed run that completes must reproduce the ungoverned estimator
     bit-for-bit *)
  let model = Model.tso () in
  let plain = Mc.estimate ~jobs:2 ~trials:20_000 model (Rng.create 77) in
  let g = Mc.estimate_governed ~jobs:2 ~trials:20_000 model (Rng.create 77) in
  Alcotest.(check bool) "complete" true (g.Par.exhausted = None);
  let e = g.Par.value in
  Alcotest.(check int) "trials" plain.Mc.trials e.Mc.trials;
  Alcotest.(check bool) "mean bitwise" true
    (Int64.equal (Int64.bits_of_float plain.Mc.mean_gamma) (Int64.bits_of_float e.Mc.mean_gamma));
  Alcotest.(check (list (pair int (float 0.0)))) "pmf identical" plain.Mc.gamma_pmf
    e.Mc.gamma_pmf;
  (* and the Bernoulli entry without a target width is probability_b *)
  let fixed = Mc.probability_b ~jobs:2 ~trials:20_000 ~gamma:1 model (Rng.create 79) in
  let r = Mc.probability_b_adaptive ~jobs:2 ~max_trials:20_000 ~gamma:1 model (Rng.create 79) in
  Alcotest.(check bool) "probability_b_adaptive without a target = probability_b" true
    (r.Par.value = fixed && r.Par.trials_done = 20_000 && not r.Par.target_met)

let test_governed_partial_interval_honest () =
  (* a deadline-limited probability_b covers fewer trials; its Wilson
     interval must widen enough to contain the full-run point estimate *)
  let model = Model.tso () in
  let full, _ = Mc.probability_b ~jobs:1 ~trials:50_000 ~gamma:1 model (Rng.create 9) in
  let g =
    Mc.probability_b_adaptive ~jobs:1
      ~budget:(Budget.create ~max_work:6 ())
      ~max_trials:50_000 ~gamma:1 model (Rng.create 9)
  in
  (match g.Par.exhausted with
   | Some e -> Alcotest.(check bool) "work cap" true (e.Budget.cause = Budget.Work)
   | None -> Alcotest.fail "expected a partial run");
  let partial_trials = g.Par.trials_done in
  Alcotest.(check bool) "fewer trials" true (partial_trials > 0 && partial_trials < 50_000);
  let point, ci = g.Par.value in
  Alcotest.(check bool)
    (Printf.sprintf "full estimate %.5f inside partial interval [%.5f, %.5f]" full ci.lo ci.hi)
    true
    (ci.lo <= full && full <= ci.hi);
  Alcotest.(check bool) "partial point is a probability" true (point >= 0.0 && point <= 1.0);
  (* the widened interval really is wider than the full-run one *)
  let _, full_ci = Mc.probability_b ~jobs:1 ~trials:50_000 ~gamma:1 model (Rng.create 9) in
  Alcotest.(check bool) "interval widened" true
    (ci.hi -. ci.lo > full_ci.hi -. full_ci.lo)

let test_governed_zero_trials_vacuous () =
  let model = Model.sc in
  let g =
    Mc.probability_b_adaptive ~jobs:1
      ~budget:(Budget.create ~max_work:0 ())
      ~max_trials:10_000 ~gamma:0 model (Rng.create 3)
  in
  let point, ci = g.Par.value in
  Alcotest.(check bool) "nan point" true (Float.is_nan point);
  Alcotest.(check (float 0.0)) "vacuous lo" 0.0 ci.lo;
  Alcotest.(check (float 0.0)) "vacuous hi" 1.0 ci.hi;
  let ge = Mc.estimate_governed ~jobs:1 ~budget:(Budget.create ~max_work:0 ()) ~trials:1_000
      model (Rng.create 3) in
  Alcotest.(check int) "empty estimate" 0 ge.Par.value.Mc.trials;
  Alcotest.(check bool) "nan mean" true (Float.is_nan ge.Par.value.Mc.mean_gamma)

(* -- streaming kernel vs the closure-based oracle ------------------------- *)

module Scratch = Memrel_settling.Scratch

let test_scratch_matches_sample_gamma () =
  (* each inlined copy of the xoshiro step in the kernel against the
     closure oracle, over every shape the kernel sizes for: on every trial
     the critical positions of two settles of one generated program (the
     joint estimators' shape) agree, and the next raw word of both
     generators agrees, which pins the stream position between trials *)
  List.iter
    (fun (name, model) ->
      List.iter
        (fun m ->
          List.iter
            (fun gap ->
              List.iter
                (fun p ->
                  let cell = Printf.sprintf "%s m=%d gap=%d p=%g" name m gap p in
                  let scratch = Scratch.create ~p ~gap ~m model in
                  let a = Rng.create (m + (97 * gap)) and b = Rng.create (m + (97 * gap)) in
                  for trial = 1 to 200 do
                    let prog = Program.generate_with_gap ~p a ~m ~gap in
                    Scratch.generate scratch b;
                    for settle = 1 to 2 do
                      let pi = Settle.run model a prog in
                      Scratch.settle scratch b;
                      let what = Printf.sprintf "%s trial %d settle %d" cell trial settle in
                      let load_pos, store_pos = W.bounds prog pi in
                      Alcotest.(check int) (what ^ " gamma") (W.gamma prog pi) (Scratch.gamma scratch);
                      Alcotest.(check int) (what ^ " load_pos") load_pos (Scratch.load_pos scratch);
                      Alcotest.(check int) (what ^ " store_pos") store_pos
                        (Scratch.store_pos scratch)
                    done;
                    Alcotest.(check int64)
                      (Printf.sprintf "%s trial %d stream position" cell trial)
                      (Rng.bits64 a) (Rng.bits64 b)
                  done)
                [ 0.5; 0.3 ])
            [ 0; 1; 3 ])
        [ 0; 1; 2; 64 ])
    [ ("SC", Model.sc); ("TSO", Model.tso ()); ("PSO", Model.pso ()); ("WO", Model.wo ()) ]

let test_streaming_equals_reference () =
  (* the streaming estimators are drop-in: bit-identical records to the
     pre-streaming closure path on the same seed *)
  let model = Model.tso () in
  let s = Mc.estimate ~jobs:1 ~trials:20_000 model (Rng.create 303) in
  let r = Memrel_oracle.Mc.estimate ~jobs:1 ~trials:20_000 model (Rng.create 303) in
  Alcotest.(check bool) "estimate identical" true (s = r);
  let sp = Mc.probability_b ~jobs:1 ~trials:20_000 ~gamma:1 model (Rng.create 305) in
  let rp = Memrel_oracle.Mc.probability_b ~jobs:1 ~trials:20_000 ~gamma:1 model (Rng.create 305) in
  Alcotest.(check bool) "probability_b identical" true (sp = rp);
  let s = Mc.estimate ~jobs:1 ~trials:20_000 model (Rng.create 20110606) in
  let r = Memrel_oracle.Mc.estimate ~jobs:1 ~trials:20_000 model (Rng.create 20110606) in
  Alcotest.(check bool) "estimate identical, seed 20110606" true (s = r)

let test_scratch_zero_alloc () =
  (* the zero-allocation guard: in steady state one full trial must not
     touch the minor heap at all, both the settling estimators' trial
     (generate + settle + gamma) and the joint estimators' (one program
     with a critical section wider than the pair, settled twice) *)
  let settling =
    let scratch = Scratch.create ~m:64 (Model.tso ()) in
    let rng = Rng.create 307 in
    fun () -> ignore (Scratch.sample_gamma scratch rng)
  in
  let joint =
    let scratch = Scratch.create ~gap:3 ~m:64 (Model.wo ()) in
    let rng = Rng.create 309 in
    fun () ->
      Scratch.generate scratch rng;
      Scratch.settle scratch rng;
      Scratch.settle scratch rng
  in
  List.iter
    (fun (name, trial) ->
      for _ = 1 to 1_000 do
        trial ()
      done;
      let trials = 10_000 in
      let before = Gc.minor_words () in
      for _ = 1 to trials do
        trial ()
      done;
      let words = (Gc.minor_words () -. before) /. float_of_int trials in
      Alcotest.(check bool)
        (Printf.sprintf "%s: %.3f words/trial < 0.5" name words)
        true (words < 0.5))
    [ ("generate + settle", settling); ("generate + 2 settles, gap 3", joint) ]

let test_adaptive_probability_b () =
  let model = Model.tso () in
  let run jobs =
    Mc.probability_b_adaptive ~jobs ~target_width:0.01 ~max_trials:1_000_000 ~gamma:0 model
      (Rng.create 5)
  in
  let s1 = run 1 in
  Alcotest.(check bool) "target met" true s1.Par.target_met;
  Alcotest.(check bool) "stopped early" true (s1.Par.trials_done < 1_000_000);
  let _, ci = s1.Par.value in
  Alcotest.(check bool)
    (Printf.sprintf "width %f <= 0.01" (ci.hi -. ci.lo))
    true
    (ci.hi -. ci.lo <= 0.01);
  (* stopping point and value are deterministic and jobs-invariant *)
  let s4 = run 4 in
  Alcotest.(check int) "same stopping point" s1.Par.trials_done s4.Par.trials_done;
  let p1, _ = s1.Par.value and p4, _ = s4.Par.value in
  Alcotest.(check bool) "same point bitwise" true
    (Int64.equal (Int64.bits_of_float p1) (Int64.bits_of_float p4))

let test_adaptive_budget_partial () =
  let model = Model.tso () in
  (* a work cap trips before the width is reached: typed partial over the
     exact chunk prefix, interval honestly wider than the target *)
  let s =
    Mc.probability_b_adaptive ~jobs:1
      ~budget:(Budget.create ~max_work:2 ())
      ~target_width:0.0001 ~max_trials:1_000_000 ~gamma:0 model (Rng.create 15)
  in
  Alcotest.(check bool) "exhausted" true (s.Par.exhausted <> None);
  Alcotest.(check bool) "target missed" false s.Par.target_met;
  Alcotest.(check int) "prefix trials" (2 * Par.default_chunk) s.Par.trials_done;
  let _, ci = s.Par.value in
  Alcotest.(check bool) "interval honestly wide" true (ci.hi -. ci.lo > 0.0001);
  (* zero budget: vacuous [0,1] around a nan point *)
  let z =
    Mc.probability_b_adaptive ~jobs:1
      ~budget:(Budget.create ~max_work:0 ())
      ~target_width:0.01 ~max_trials:1_000 ~gamma:0 model (Rng.create 15)
  in
  let p, zci = z.Par.value in
  Alcotest.(check int) "zero trials" 0 z.Par.trials_done;
  Alcotest.(check bool) "nan point" true (Float.is_nan p);
  Alcotest.(check (float 0.0)) "vacuous lo" 0.0 zci.lo;
  Alcotest.(check (float 0.0)) "vacuous hi" 1.0 zci.hi

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("window accessors", test_window_gamma_manual);
      ("window grows under TSO", test_window_grows_under_tso);
      ("estimate SC", test_estimate_sc);
      ("estimate WO vs Theorem 4.1", test_estimate_wo_matches_theorem);
      ("estimate TSO vs exact series", test_estimate_tso_matches_series);
      ("probability_b interval", test_probability_b_ci);
      ("mean gamma ordering", test_mean_gamma_ordering);
      ("PSO window smaller than TSO (footnote 4)", test_pso_window_smaller_than_tso);
      ("small-m truncation", test_small_m_truncation_bias);
      ("chi-squared goodness of fit", test_goodness_of_fit_chi2);
      ("jobs:1 = jobs:4 bit-identical", test_jobs_invariance);
      ("probability_b jobs-invariant", test_probability_b_jobs_invariance);
      ("invalid arguments", test_invalid);
      ("governed complete = estimate (bitwise)", test_governed_complete_equals_estimate);
      ("partial interval contains full estimate", test_governed_partial_interval_honest);
      ("zero-trial partial is vacuous", test_governed_zero_trials_vacuous);
      ("scratch kernel = closure path (draw-for-draw)", test_scratch_matches_sample_gamma);
      ("streaming = Reference (bitwise)", test_streaming_equals_reference);
      ("scratch trial allocates nothing", test_scratch_zero_alloc);
      ("adaptive probability_b reaches width, jobs-invariant", test_adaptive_probability_b);
      ("adaptive budget partial honest", test_adaptive_budget_partial);
    ]
