module L = Memrel_machine.Litmus
module E = Memrel_machine.Enumerate
module Sem = Memrel_machine.Semantics
module Model = Memrel_memmodel.Model

let run ?window t family = fst (Memrel_oracle.Enumerate_reference.run_capped ?window t family)

let check ?window t family = L.verdict t family (run ?window t family)

let families =
  [ Model.Sequential_consistency; Model.Total_store_order; Model.Partial_store_order;
    Model.Weak_ordering ]

let test_corpus_well_formed () =
  Alcotest.(check int) "twelve tests" 12 (List.length L.all);
  List.iter
    (fun (t : L.t) ->
      Alcotest.(check bool) (t.name ^ " has threads") true (List.length t.programs >= 1);
      Alcotest.(check bool) (t.name ^ " has description") true (String.length t.description > 0))
    L.all

let test_find () =
  Alcotest.(check string) "finds sb" "sb" (L.find "sb").L.name;
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (L.find "nonexistent"));
  let top = Printf.sprintf "inc%d" L.max_inc_threads in
  Alcotest.(check string) "incN at the bound" top (L.find top).L.name;
  Alcotest.check_raises "incN above the bound" Not_found (fun () ->
      ignore (L.find (Printf.sprintf "inc%d" (L.max_inc_threads + 1))));
  Alcotest.check_raises "a billion threads refused" Not_found (fun () ->
      ignore (L.find "inc1000000000"));
  List.iter
    (fun name ->
      Alcotest.check_raises (name ^ " is not a name of inc5") Not_found (fun () ->
          ignore (L.find name)))
    [ "inc05"; "inc0x5"; "inc0b101"; "inc+5"; "inc5_"; "inc1_0"; "inc-5"; "inc 5"; "inc002" ]

(* The heart of the operational validation: every corpus expectation must
   hold under exhaustive enumeration for every model. One alcotest case per
   (test, model) pair so failures localize. *)
let verdict_cases =
  List.concat_map
    (fun (t : L.t) ->
      List.map
        (fun family ->
          let name =
            Printf.sprintf "%s under %s" t.L.name
              (match family with
               | Model.Sequential_consistency -> "SC"
               | Model.Total_store_order -> "TSO"
               | Model.Partial_store_order -> "PSO"
               | Model.Weak_ordering -> "WO"
               | Model.Custom -> "custom")
          in
          Alcotest.test_case name `Quick (fun () ->
              let v = check t family in
              if not v.agrees then
                Alcotest.fail
                  (Printf.sprintf "observed_relaxed=%b expected=%b" v.observed_relaxed
                     v.expected_relaxed)))
        families)
    L.all

let test_outcome_monotonicity () =
  (* weaker models can only ADD outcomes: SC outcomes must be a subset of
     every other model's outcome set *)
  List.iter
    (fun (t : L.t) ->
      let outcomes family =
        List.map fst (run t family).E.outcomes
      in
      let sc = outcomes Model.Sequential_consistency in
      List.iter
        (fun f ->
          let other = outcomes f in
          List.iter
            (fun o ->
              if not (List.mem o other) then
                Alcotest.fail (Printf.sprintf "%s: SC outcome missing under weaker model" t.name))
            sc)
        [ Model.Total_store_order; Model.Partial_store_order; Model.Weak_ordering ])
    L.all

let test_inc_outcomes () =
  (* the canonical bug: exactly {x=1, x=2} are reachable under every model *)
  List.iter
    (fun f ->
      let r = run (L.find "inc") f in
      let outcomes = List.map fst r.E.outcomes in
      Alcotest.(check int) "two outcomes" 2 (List.length outcomes);
      Alcotest.(check bool) "x=1 reachable" true (List.mem [ ("x", 1) ] outcomes);
      Alcotest.(check bool) "x=2 reachable" true (List.mem [ ("x", 2) ] outcomes))
    families

let test_sb_outcome_sets () =
  (* SC allows exactly 3 of the 4 (r0, r1) combinations; relaxed models all 4 *)
  let count f = List.length (run (L.find "sb") f).E.outcomes in
  Alcotest.(check int) "SC" 3 (count Model.Sequential_consistency);
  Alcotest.(check int) "TSO" 4 (count Model.Total_store_order);
  Alcotest.(check int) "WO" 4 (count Model.Weak_ordering)

let test_inc_atomic_fixes_bug () =
  (* the RMW version: x = 2 is the ONLY outcome under every model *)
  List.iter
    (fun f ->
      let r = run (L.find "inc+rmw") f in
      match r.E.outcomes with
      | [ (o, _) ] -> Alcotest.(check (list (pair string int))) "only x=2" [ ("x", 2) ] o
      | l -> Alcotest.fail (Printf.sprintf "expected one outcome, got %d" (List.length l)))
    families

let test_increment_n () =
  (* n = 2 must coincide with the corpus inc; outcomes of inc_n are exactly
     x in {1 .. n} under SC *)
  let t3 = L.increment_n 3 in
  let r = run t3 Model.Sequential_consistency in
  let outcomes = List.map fst r.E.outcomes in
  Alcotest.(check int) "three outcomes" 3 (List.length outcomes);
  List.iter
    (fun v ->
      Alcotest.(check bool) (Printf.sprintf "x=%d reachable" v) true
        (List.mem [ ("x", v) ] outcomes))
    [ 1; 2; 3 ];
  (* the maximal-loss outcome x = 1 stays reachable under every model *)
  List.iter
    (fun f ->
      let v = check t3 f in
      Alcotest.(check bool) "x=1 reachable" true v.observed_relaxed)
    families;
  Alcotest.check_raises "n=1 rejected" (Invalid_argument "Litmus.increment_n: n >= 2 required")
    (fun () -> ignore (L.increment_n 1))

let test_window_parameter_matters () =
  (* with window 1, WO degrades to in-order issue: LB's relaxed outcome
     disappears *)
  let v = check ~window:1 (L.find "lb") Model.Weak_ordering in
  Alcotest.(check bool) "window=1 forbids LB" false v.observed_relaxed

(* -- structural hash ---------------------------------------------------- *)

let test_hash_no_collisions () =
  (* the whole corpus plus the incN family: every structurally distinct
     test must digest differently — the service cache keys on this. [inc]
     itself IS increment_n 2, so that digest must coincide, and the family
     here starts at 3 *)
  Alcotest.(check string) "inc digests as increment_n 2" (L.hash (L.find "inc"))
    (L.hash (L.increment_n 2));
  let tests = L.all @ List.init 10 (fun i -> L.increment_n (i + 3)) in
  let tagged = List.map (fun t -> (t.L.name, L.hash t)) tests in
  List.iteri
    (fun i (ni, hi) ->
      Alcotest.(check int) (ni ^ " hash is 16 hex chars") 16 (String.length hi);
      List.iteri
        (fun j (nj, hj) ->
          if i < j then
            Alcotest.(check bool)
              (Printf.sprintf "%s and %s hash apart" ni nj)
              false (String.equal hi hj))
        tagged)
    tagged

let test_hash_name_independent () =
  let sb = L.find "sb" in
  let renamed = { sb with L.name = "renamed"; description = "different words" } in
  Alcotest.(check string) "rename preserves the hash" (L.hash sb) (L.hash renamed)

let test_hash_structure_sensitive () =
  let sb = L.find "sb" in
  (* drop one instruction: different structure, different digest *)
  let truncated =
    { sb with L.programs = [ List.hd sb.L.programs; [| Memrel_machine.Instr.load ~reg:0 ~loc:0 |] ] }
  in
  Alcotest.(check bool) "instruction change changes the hash" false
    (String.equal (L.hash sb) (L.hash truncated));
  (* same programs, different initial memory *)
  let seeded = { sb with L.initial_mem = [ (0, 7) ] } in
  Alcotest.(check bool) "initial memory changes the hash" false
    (String.equal (L.hash sb) (L.hash seeded));
  (* same programs, different observation spec *)
  let observed = { sb with L.relaxed_outcome = [ ("0:r0", 0) ] } in
  Alcotest.(check bool) "observation spec changes the hash" false
    (String.equal (L.hash sb) (L.hash observed))

let test_hash_pure () =
  List.iter
    (fun (t : L.t) -> Alcotest.(check string) (t.L.name ^ " hash stable") (L.hash t) (L.hash t))
    L.all

let test_structure_counts () =
  let threads, locs, events = L.structure (L.find "sb") in
  Alcotest.(check (triple int int int)) "sb structure" (2, 2, 4) (threads, locs, events);
  let threads, locs, events = L.structure (L.find "inc") in
  Alcotest.(check (triple int int int)) "inc structure" (2, 1, 4) (threads, locs, events);
  let threads, locs, events = L.structure (L.find "iriw") in
  Alcotest.(check (triple int int int)) "iriw structure" (4, 2, 6) (threads, locs, events)

let test_corpus_table_golden () =
  let table = L.corpus_table () in
  let lines = String.split_on_char '\n' table in
  (* header + 12 rows + trailing newline *)
  Alcotest.(check int) "line count" (1 + List.length L.all + 1) (List.length lines);
  List.iter
    (fun (t : L.t) ->
      let prefix = Printf.sprintf "%-10s %-16s" t.L.name (L.hash t) in
      Alcotest.(check bool)
        (t.L.name ^ " row present with its hash")
        true
        (List.exists (fun l -> String.length l >= String.length prefix
                               && String.sub l 0 (String.length prefix) = prefix) lines))
    L.all;
  (* golden pin of one full row: format regressions fail loudly *)
  let sb = L.find "sb" in
  let expected_sb =
    Printf.sprintf "%-10s %-16s %7d %4d %6d  %s" "sb" (L.hash sb) 2 2 4 sb.L.description
  in
  Alcotest.(check bool) "sb golden row" true (List.mem expected_sb lines)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("corpus well-formed", test_corpus_well_formed);
      ("find", test_find);
      ("hash: corpus collision-free", test_hash_no_collisions);
      ("hash: name-independent", test_hash_name_independent);
      ("hash: structure-sensitive", test_hash_structure_sensitive);
      ("hash: deterministic", test_hash_pure);
      ("structure counts", test_structure_counts);
      ("litmus list golden table", test_corpus_table_golden);
      ("SC outcomes subset of weaker models", test_outcome_monotonicity);
      ("inc outcome set", test_inc_outcomes);
      ("sb outcome counts", test_sb_outcome_sets);
      ("inc+rmw single outcome", test_inc_atomic_fixes_bug);
      ("increment_n", test_increment_n);
      ("WO window parameter", test_window_parameter_matters);
    ]
  @ verdict_cases
