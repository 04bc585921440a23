(* Pinned allowed-outcome sets for the classic litmus shapes under each
   model, computed purely axiomatically (no operational run) by the solver
   and by its generate-and-prune oracle. These are the textbook verdicts: sb distinguishes SC from TSO, mp distinguishes TSO
   from PSO, lb and iriw distinguish PSO from WO. The differential suite in
   test/machine checks axiomatic = operational corpus-wide; here the exact
   sets are written out by hand so a simultaneous bug in both semantics
   cannot cancel out. *)

module L = Memrel_machine.Litmus
module G = Memrel_oracle.Generate
module S = Memrel_axiom.Solver
module Model = Memrel_memmodel.Model

let sc = Model.Sequential_consistency
let tso = Model.Total_store_order
let pso = Model.Partial_store_order
let wo = Model.Weak_ordering

let outcome_testable = Alcotest.(list (list (pair string int)))

let check_set name t family expected () =
  Alcotest.check outcome_testable (name ^ " generate") (List.sort compare expected)
    (G.outcome_set t family);
  Alcotest.check outcome_testable (name ^ " solver") (List.sort compare expected)
    (S.outcome_set t family)

(* -- sb: labels 0:r0, 1:r0 --------------------------------------------- *)

let sb_o (a, b) = [ ("0:r0", a); ("1:r0", b) ]
let sb_sc = List.map sb_o [ (0, 1); (1, 0); (1, 1) ]
let sb_relaxed_all = List.map sb_o [ (0, 0); (0, 1); (1, 0); (1, 1) ]

(* -- mp: labels 1:r0, 1:r1 --------------------------------------------- *)

let mp_o (a, b) = [ ("1:r0", a); ("1:r1", b) ]
let mp_strong = List.map mp_o [ (0, 0); (0, 1); (1, 1) ]
let mp_relaxed = List.map mp_o [ (0, 0); (0, 1); (1, 0); (1, 1) ]

(* -- lb: labels 0:r0, 1:r0 --------------------------------------------- *)

let lb_o (a, b) = [ ("0:r0", a); ("1:r0", b) ]
let lb_strong = List.map lb_o [ (0, 0); (0, 1); (1, 0) ]
let lb_relaxed = List.map lb_o [ (0, 0); (0, 1); (1, 0); (1, 1) ]

(* -- iriw: labels 2:r0, 2:r1, 3:r0, 3:r1 ------------------------------- *)

let iriw_o (a, b, c, d) = [ ("2:r0", a); ("2:r1", b); ("3:r0", c); ("3:r1", d) ]

let iriw_all =
  List.concat_map
    (fun a ->
      List.concat_map
        (fun b ->
          List.concat_map (fun c -> List.map (fun d -> iriw_o (a, b, c, d)) [ 0; 1 ])
            [ 0; 1 ])
        [ 0; 1 ])
    [ 0; 1 ]

(* readers disagreeing on the store order is the single excluded combination
   when one memory order exists *)
let iriw_strong = List.filter (fun o -> o <> iriw_o (1, 0, 1, 0)) iriw_all

(* sb under TSO must admit EXACTLY the one extra outcome SC forbids: the
   acceptance criterion of the subsystem *)
let test_sb_tso_is_sc_plus_relaxed () =
  let t = L.find "sb" in
  let sc_set = G.outcome_set t sc in
  let tso_set = G.outcome_set t tso in
  Alcotest.check outcome_testable "TSO = SC + relaxed"
    (List.sort compare (t.L.relaxed_outcome :: sc_set))
    tso_set

(* WO with window = 1 cannot reorder anything: axiomatically it must
   collapse to the SC outcome set *)
let test_wo_window1_is_sc () =
  List.iter
    (fun name ->
      let t = L.find name in
      Alcotest.check outcome_testable
        (name ^ " WO window=1 = SC")
        (G.outcome_set t sc)
        (G.outcome_set ~window:1 t wo))
    [ "sb"; "mp"; "lb"; "iriw"; "2+2w" ]

(* the rmw fix: an update reading anything but its coherence predecessor is
   an fr;co cycle, so x=1 is axiomatically impossible under every model *)
let test_inc_rmw_atomic () =
  let t = L.find "inc+rmw" in
  List.iter
    (fun family ->
      Alcotest.check outcome_testable
        ("inc+rmw under " ^ Model.family_name family)
        [ [ ("x", 2) ] ]
        (G.outcome_set t family))
    [ sc; tso; pso; wo ]

(* the sparse fence emission (per-thread slices, redundancy-witness probe)
   must close to exactly the seed's dense before x after product, on every
   corpus program — including the fenceless ones, where both are empty *)
let test_fence_edges_closure_equal () =
  let module A = Memrel_axiom.Axioms in
  let module O = Memrel_axiom.Order in
  List.iter
    (fun (t : L.t) ->
      let events = Memrel_axiom.Event.of_programs t.L.programs in
      let n = Array.length events in
      let close edges =
        let o = O.create n in
        List.iter (fun (u, v) -> ignore (O.add o u v)) edges;
        o
      in
      let sparse = A.fence_edges t.L.programs events in
      let dense = Memrel_oracle.Axioms_reference.fence_edges t.L.programs events in
      let a = close sparse and b = close dense in
      for u = 0 to n - 1 do
        for v = 0 to n - 1 do
          if O.reaches a u v <> O.reaches b u v then
            Alcotest.failf "%s: fence closures differ at (%d, %d)" t.L.name u v
        done
      done;
      Alcotest.(check bool)
        (t.L.name ^ ": sparse emission no larger than dense")
        true
        (List.length sparse <= List.length dense))
    L.all

(* the seed multiplied float factorials: 200 same-location writes made
   naive_space infinite and every derived ratio nan. The log-space form
   stays finite and the linear convenience clamps. *)
let test_naive_space_log_overflow () =
  let module I = Memrel_machine.Instr in
  let prog = Array.init 200 (fun i -> I.Store { loc = 0; src = I.Imm i }) in
  let events = Memrel_axiom.Event.of_programs [ prog ] in
  let lg = Memrel_axiom.Event.log10_naive_space events in
  Alcotest.(check bool) "log measure finite and past float range" true
    (Float.is_finite lg && lg > 308.0);
  let linear = Memrel_axiom.Event.naive_space_of_log10 lg in
  Alcotest.(check bool) "linear form clamps instead of overflowing" true
    (Float.is_finite linear && linear = Float.max_float);
  Alcotest.(check (float 1e-9)) "small values survive the round-trip" 4.0
    (Memrel_axiom.Event.naive_space_of_log10 (log10 4.0))

let test_pruning_stats () =
  let t = L.find "sb" in
  let stats = G.iter t sc (fun _ -> ()) in
  Alcotest.(check int) "4 events" 4 stats.G.events;
  Alcotest.(check int) "3 accepted" 3 stats.G.accepted;
  Alcotest.(check bool) "something pruned under SC" true (stats.G.pruned > 0);
  Alcotest.(check (float 1e-9)) "naive space = 4" 4.0 stats.G.naive_space

(* budget governance: a candidate cap yields a partial run whose outcome
   set is a subset of the full one, honestly flagged as exhausted *)
let test_budget_candidate_cap () =
  let t = L.find "sb" in
  let full = G.outcome_set t tso in
  let budget = Memrel_prob.Budget.create ~max_work:2 () in
  let r = G.run ~budget t tso in
  (match r.G.stats.G.exhausted with
  | Some e ->
      Alcotest.(check string)
        "cause is the work cap" "work cap"
        (Memrel_prob.Budget.cause_to_string e.Memrel_prob.Budget.cause)
  | None -> Alcotest.fail "capped run must report exhaustion");
  Alcotest.(check bool) "at most 2 candidates accepted" true (r.G.stats.G.accepted <= 2);
  Alcotest.(check bool) "some progress was made" true (r.G.stats.G.accepted > 0);
  List.iter
    (fun e ->
      Alcotest.(check bool) "partial outcome is in the full set" true
        (List.mem e.G.outcome full))
    r.G.entries

let test_budget_deadline_zero_partial () =
  let t = L.find "sb" in
  let budget = Memrel_prob.Budget.create ~deadline_s:0.0 () in
  let r = G.run ~budget t sc in
  (match r.G.stats.G.exhausted with
  | Some e ->
      Alcotest.(check string)
        "cause is the deadline" "deadline"
        (Memrel_prob.Budget.cause_to_string e.Memrel_prob.Budget.cause)
  | None -> Alcotest.fail "expired deadline must report exhaustion");
  Alcotest.(check int) "no candidates accepted" 0 r.G.stats.G.accepted;
  Alcotest.(check outcome_testable) "no outcomes" [] (List.map (fun e -> e.G.outcome) r.G.entries)

let test_budget_complete_run_not_exhausted () =
  let t = L.find "sb" in
  let budget = Memrel_prob.Budget.create ~max_work:1_000_000 () in
  let r = G.run ~budget t tso in
  Alcotest.(check bool) "generous budget completes" true (r.G.stats.G.exhausted = None);
  Alcotest.(check outcome_testable) "same outcomes as unbudgeted" (G.outcome_set t tso)
    (List.map (fun e -> e.G.outcome) r.G.entries)

let sets name expected_by_family =
  List.map
    (fun (family, expected) ->
      let t = L.find name in
      Alcotest.test_case
        (Printf.sprintf "%s under %s pinned" name (Model.family_name family))
        `Quick
        (check_set name t family expected))
    expected_by_family

let suite =
  sets "sb" [ (sc, sb_sc); (tso, sb_relaxed_all); (pso, sb_relaxed_all); (wo, sb_relaxed_all) ]
  @ sets "mp" [ (sc, mp_strong); (tso, mp_strong); (pso, mp_relaxed); (wo, mp_relaxed) ]
  @ sets "lb" [ (sc, lb_strong); (tso, lb_strong); (pso, lb_strong); (wo, lb_relaxed) ]
  @ sets "iriw"
      [ (sc, iriw_strong); (tso, iriw_strong); (pso, iriw_strong); (wo, iriw_all) ]
  @ [
      Alcotest.test_case "sb TSO = SC set + exactly the relaxed outcome" `Quick
        test_sb_tso_is_sc_plus_relaxed;
      Alcotest.test_case "WO window=1 collapses to SC" `Quick test_wo_window1_is_sc;
      Alcotest.test_case "inc+rmw forces x=2 everywhere" `Quick test_inc_rmw_atomic;
      Alcotest.test_case "fence edges close to the dense reference corpus-wide" `Quick
        test_fence_edges_closure_equal;
      Alcotest.test_case "naive space survives factorial overflow in log space" `Quick
        test_naive_space_log_overflow;
      Alcotest.test_case "generator statistics" `Quick test_pruning_stats;
      Alcotest.test_case "candidate cap yields honest partial coverage" `Quick
        test_budget_candidate_cap;
      Alcotest.test_case "expired deadline yields empty partial run" `Quick
        test_budget_deadline_zero_partial;
      Alcotest.test_case "generous budget runs to completion" `Quick
        test_budget_complete_run_not_exhausted;
    ]
