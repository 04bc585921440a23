(* The chronological solver must be observationally indistinguishable
   from its generate-and-prune oracle: same decision tree, so not just the
   same outcome sets but the same accepted-candidate count per outcome.
   The parity tests below pin that across the whole corpus and the shipped
   examples/litmus files under all four models (and across WO windows,
   whose static edges reshape every instance). A table then pins the
   search's own counters, so a change to decision order or propagation
   shows even where outcomes do not move. The solver-only tests go where
   Generate cannot: sizes
   whose candidate spaces make generate-and-prune exceed any reasonable
   budget, pinned against hand-written expectations and the operational
   enumerator. *)

module L = Memrel_machine.Litmus
module G = Memrel_oracle.Generate
module S = Memrel_axiom.Solver
module Model = Memrel_memmodel.Model
module Budget = Memrel_prob.Budget

let sc = Model.Sequential_consistency
let families = [ sc; Model.Total_store_order; Model.Partial_store_order; Model.Weak_ordering ]

let outcome_testable = Alcotest.(list (list (pair string int)))
let counted_testable = Alcotest.(list (pair (list (pair string int)) int))

let generate_entries ?window t family =
  List.map (fun e -> (e.G.outcome, e.G.candidates)) (G.run ?window t family).G.entries

let solver_entries ?window t family =
  List.map (fun e -> (e.S.outcome, e.S.candidates)) (S.run ?window t family).S.entries

(* the examples/litmus files, copied next to the test binary by dune;
   seqlock-read is the one whose root propagation forces an edge *)
let litmus_files =
  lazy
    (List.map
       (fun f ->
         Memrel_machine.Parse.parse
           (In_channel.with_open_bin ("litmus_files/" ^ f ^ ".litmus") In_channel.input_all))
       [ "dekker_attempt"; "dekker_fenced"; "seqlock_read"; "ticket_counter"; "sb"; "mp"; "lb";
         "iriw" ])

(* outcome sets AND per-outcome candidate counts, corpus x models: the
   strongest cheap statement that the two engines walk the same leaves *)
let test_corpus_parity () =
  List.iter
    (fun t ->
      List.iter
        (fun family ->
          Alcotest.check counted_testable
            (Printf.sprintf "%s under %s" t.L.name (Model.family_name family))
            (generate_entries t family) (solver_entries t family))
        families)
    (L.all @ Lazy.force litmus_files)

(* WO's reorder window rewrites the static skeleton of every instance;
   windows 1-3 cover no-reordering, adjacent-swap, and genuinely weak *)
let test_wo_window_parity () =
  List.iter
    (fun t ->
      List.iter
        (fun window ->
          Alcotest.check counted_testable
            (Printf.sprintf "%s WO window=%d" t.L.name window)
            (generate_entries ~window t Model.Weak_ordering)
            (solver_entries ~window t Model.Weak_ordering))
        [ 1; 2; 3 ])
    (L.all @ Lazy.force litmus_files)

(* accepted, decisions, propagations, conflicts and memo_hits per model
   (SC, TSO, PSO, WO; incN under SC only), as in BENCH_axiom.json *)
let search_shape =
  [
    ("inc", [ (4, 14, 6, 3, 0); (4, 14, 12, 3, 0); (4, 14, 12, 3, 0); (4, 14, 6, 3, 0) ]);
    ("inc+rmw", [ (2, 12, 2, 4, 0); (2, 12, 4, 4, 0); (2, 12, 4, 4, 0); (2, 12, 2, 4, 0) ]);
    ("sb", [ (3, 8, 4, 1, 0); (4, 8, 12, 0, 0); (4, 8, 12, 0, 0); (4, 8, 6, 0, 0) ]);
    ("sb+fence", [ (3, 8, 4, 1, 0); (3, 8, 9, 1, 0); (3, 8, 9, 1, 0); (3, 8, 4, 1, 0) ]);
    ("sb+fence1", [ (3, 8, 4, 1, 0); (4, 8, 12, 0, 0); (4, 8, 12, 0, 0); (4, 8, 6, 0, 0) ]);
    ("mp", [ (3, 8, 4, 1, 0); (3, 8, 9, 1, 0); (4, 8, 12, 0, 0); (4, 8, 6, 0, 0) ]);
    ("mp+ra", [ (3, 8, 4, 1, 0); (3, 8, 9, 1, 0); (3, 8, 9, 1, 0); (3, 8, 4, 1, 0) ]);
    ("lb", [ (3, 8, 4, 1, 0); (3, 8, 9, 1, 0); (3, 8, 9, 1, 0); (4, 8, 6, 0, 0) ]);
    ("corr", [ (3, 7, 4, 1, 0); (3, 7, 8, 1, 0); (3, 7, 8, 1, 0); (3, 7, 4, 1, 0) ]);
    ("2+2w", [ (3, 12, 4, 1, 0); (3, 12, 9, 1, 0); (4, 12, 12, 0, 0); (4, 12, 6, 0, 0) ]);
    ("wrc", [ (7, 16, 12, 1, 0); (7, 16, 25, 1, 0); (7, 16, 25, 1, 0); (8, 16, 14, 0, 0) ]);
    ("iriw", [ (15, 32, 28, 1, 0); (15, 32, 57, 1, 0); (15, 32, 57, 1, 0); (16, 32, 30, 0, 0) ]);
    ("inc3", [ (36, 135, 72, 50, 9) ]);
    ("inc4", [ (576, 2160, 1164, 1020, 320) ]);
    ("inc5", [ (14400, 54205, 28880, 28824, 11275) ]);
  ]

let test_search_shape () =
  let counters = Alcotest.(list (pair string int)) in
  List.iter
    (fun (name, per_model) ->
      List.iteri
        (fun i (accepted, decisions, propagations, conflicts, memo_hits) ->
          let family = List.nth families i in
          let s = (S.run (L.find name) family).S.stats in
          Alcotest.check counters
            (Printf.sprintf "%s under %s" name (Model.family_name family))
            [ ("accepted", accepted); ("decisions", decisions); ("propagations", propagations);
              ("conflicts", conflicts); ("memo_hits", memo_hits) ]
            [ ("accepted", s.S.accepted); ("decisions", s.S.decisions);
              ("propagations", s.S.propagations); ("conflicts", s.S.conflicts);
              ("memo_hits", s.S.memo_hits) ])
        per_model)
    search_shape

let test_accepted_totals () =
  List.iter
    (fun name ->
      let t = L.find name in
      List.iter
        (fun family ->
          let g = (G.run t family).G.stats in
          let s = (S.run t family).S.stats in
          Alcotest.(check int)
            (Printf.sprintf "%s/%s accepted" name (Model.family_name family))
            g.G.accepted s.S.accepted;
          Alcotest.(check bool) "memo keys bounded by accepted" true
            (s.S.distinct_keys <= max 1 s.S.accepted);
          Alcotest.(check (float 1e-9))
            "same naive-space accounting" g.G.log10_naive_space s.S.log10_naive_space)
        families)
    [ "sb"; "iriw"; "inc4"; "wrc" ]

(* solver = generate-and-prune = the operational machine in one verdict
   (Memrel_oracle.Three_way), per-outcome candidate counts included, on
   the workloads of the axiom bench *)
let check_three_way tests families () =
  List.iter
    (fun t ->
      List.iter
        (fun family ->
          let tw = Memrel_oracle.Three_way.run t family in
          let ctx = Printf.sprintf "%s under %s" t.L.name (Model.family_name family) in
          Alcotest.(check bool) (ctx ^ ": outcome sets agree") true
            tw.Memrel_oracle.Three_way.report.Memrel_axiom.Differential.agree;
          Alcotest.(check bool) (ctx ^ ": candidate counts agree") true
            tw.Memrel_oracle.Three_way.counts_agree)
        families)
    tests

(* budget governance mirrors Generate's partial contract (PR5): a capped
   run must flag exhaustion and stay a subset of the full outcome set *)
let test_budget_candidate_cap () =
  let t = L.find "sb" in
  let full = S.outcome_set t Model.Total_store_order in
  let budget = Budget.create ~max_work:2 () in
  let r = S.run ~budget t Model.Total_store_order in
  (match r.S.stats.S.exhausted with
  | Some e ->
    Alcotest.(check string) "cause is the work cap" "work cap"
      (Budget.cause_to_string e.Budget.cause)
  | None -> Alcotest.fail "capped run must report exhaustion");
  Alcotest.(check bool) "at most 2 candidates accepted" true (r.S.stats.S.accepted <= 2);
  Alcotest.(check bool) "some progress was made" true (r.S.stats.S.accepted > 0);
  List.iter
    (fun e ->
      Alcotest.(check bool) "partial outcome is in the full set" true
        (List.mem e.S.outcome full))
    r.S.entries

let test_budget_deadline_zero_partial () =
  let t = L.find "sb" in
  let budget = Budget.create ~deadline_s:0.0 () in
  let r = S.run ~budget t sc in
  (match r.S.stats.S.exhausted with
  | Some e ->
    Alcotest.(check string) "cause is the deadline" "deadline"
      (Budget.cause_to_string e.Budget.cause)
  | None -> Alcotest.fail "expired deadline must report exhaustion");
  Alcotest.(check int) "no candidates accepted" 0 r.S.stats.S.accepted

let test_budget_complete_run_not_exhausted () =
  let t = L.find "sb" in
  let budget = Budget.create ~max_work:1_000_000 () in
  let r = S.run ~budget t Model.Total_store_order in
  Alcotest.(check bool) "generous budget completes" true (r.S.stats.S.exhausted = None);
  Alcotest.check outcome_testable "same outcomes as unbudgeted"
    (S.outcome_set t Model.Total_store_order)
    (List.map (fun e -> e.S.outcome) r.S.entries)

(* the PR5 contract at the differential layer: a budget-partial axiomatic
   run proves nothing about forbidden outcomes, so the comparison must be
   refused — not reported as (spurious) disagreement, never as agreement *)
let test_partial_refuses_differential () =
  let module D = Memrel_axiom.Differential in
  let t = L.find "sb" in
  let budget = Budget.create ~max_work:2 () in
  let r = D.run ~budget t Model.Total_store_order in
  Alcotest.(check bool) "partial flagged" true r.D.partial;
  Alcotest.(check bool) "agreement refused" false r.D.agree;
  Alcotest.(check int) "no disagreements fabricated" 0 (List.length r.D.disagreements);
  let described = D.describe r in
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "describe says the comparison was refused" true
    (contains described "PARTIAL")

(* atomic increment with 7 threads: 5040^2 ~ 25M allowed SC candidates,
   past what generate-and-prune finishes inside a differential budget. The
   solver must still conclude, and under SC the final value is any count
   of "updates that stuck", 1..7 — pinned by hand, not against an engine *)
let test_inc7_solver_only () =
  let t = L.increment_n 7 in
  let r = S.run t sc in
  Alcotest.(check bool) "complete" true (r.S.stats.S.exhausted = None);
  Alcotest.check outcome_testable "inc7 SC = x in 1..7"
    (List.init 7 (fun i -> [ ("x", i + 1) ]))
    (List.map (fun e -> e.S.outcome) r.S.entries);
  Alcotest.(check bool) "memoization engaged" true (r.S.stats.S.memo_hits > 0)

(* a 6-thread IRIW family (two writers per location, four readers split
   across the two orders) is operationally cheap but axiomatically wide;
   pin the solver against the operational enumerator directly *)
let iriw6 =
  let module I = Memrel_machine.Instr in
  let wx v = [| I.Store { loc = L.x; src = I.Imm v } |] in
  let wy v = [| I.Store { loc = L.y; src = I.Imm v } |] in
  let rr a b = [| I.Load { loc = a; reg = 0 }; I.Load { loc = b; reg = 1 } |] in
  {
    L.name = "iriw6";
    description = "IRIW with two writers per location and two reader pairs";
    programs = [ wx 1; wy 1; rr L.x L.y; rr L.y L.x; wx 2; wy 2 ];
    initial_mem = [];
    observe = L.observe_regs [ (2, 0); (2, 1); (3, 0); (3, 1) ];
    relaxed_outcome =
      [ ("2:r0", 1); ("2:r1", 0); ("3:r0", 1); ("3:r1", 0) ];
    allowed_under = (fun f -> f = Model.Weak_ordering);
  }

let test_iriw6_solver_vs_operational () =
  Alcotest.check outcome_testable "iriw6 solver = operational under SC"
    (Memrel_machine.Enumerate.outcome_set (fst (L.run_exhaustive iriw6 sc)))
    (S.outcome_set iriw6 sc)

let suite =
  [
    Alcotest.test_case "corpus x models: outcome + count parity" `Quick test_corpus_parity;
    Alcotest.test_case "WO windows 1-3: outcome + count parity" `Quick test_wo_window_parity;
    Alcotest.test_case "accepted totals and memo bounds" `Quick test_accepted_totals;
    Alcotest.test_case "search counters pinned: corpus x models, inc3-inc5 SC" `Quick
      test_search_shape;
    Alcotest.test_case "three-way: corpus and inc3-inc5 x models" `Quick
      (check_three_way (L.all @ List.map L.increment_n [ 3; 4; 5 ]) families);
    Alcotest.test_case "three-way: inc6 under SC" `Quick (check_three_way [ L.increment_n 6 ] [ sc ]);
    Alcotest.test_case "candidate cap yields honest partial coverage" `Quick
      test_budget_candidate_cap;
    Alcotest.test_case "expired deadline yields empty partial run" `Quick
      test_budget_deadline_zero_partial;
    Alcotest.test_case "generous budget runs to completion" `Quick
      test_budget_complete_run_not_exhausted;
    Alcotest.test_case "partial solver run refuses the differential" `Quick
      test_partial_refuses_differential;
    Alcotest.test_case "inc7 completes solver-only (generate-infeasible)" `Slow
      test_inc7_solver_only;
    Alcotest.test_case "6-thread iriw6 pinned against the operational enumerator" `Quick
      test_iriw6_solver_vs_operational;
  ]
