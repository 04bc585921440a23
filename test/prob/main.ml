let () =
  Alcotest.run "memrel_prob"
    [
      ("bigint", Test_bigint.suite);
      ("rational", Test_rational.suite);
      ("rng", Test_rng.suite);
      ("par", Test_par.suite);
      ("budget", Test_budget.suite);
      ("snapshot", Test_snapshot.suite);
      ("combinatorics", Test_combinatorics.suite);
      ("fastpath", Test_fastpath.suite);
      ("stats", Test_stats.suite);
      ("series", Test_series.suite);
    ]
