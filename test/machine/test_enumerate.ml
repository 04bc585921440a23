module E = Memrel_machine.Enumerate
module Sem = Memrel_machine.Semantics
module State = Memrel_machine.State
module L = Memrel_machine.Litmus
module I = Memrel_machine.Instr
module Model = Memrel_memmodel.Model

let mk programs = State.init ~programs ~initial_mem:[]

let disciplines = [ ("SC", Sem.Sc); ("TSO", Sem.Tso); ("PSO", Sem.Pso); ("WO", Sem.Wo { window = 8 }) ]

let test_single_thread_single_outcome () =
  let st = mk [ [| I.store ~loc:0 ~src:(I.Imm 1); I.load ~reg:0 ~loc:0 |] ] in
  let r = E.outcomes Sem.Sc st ~observe:(fun s -> State.reg s.State.threads.(0) 0) in
  Alcotest.(check (list (pair int int))) "one outcome" [ (1, 1) ] r.outcomes;
  Alcotest.(check int) "one terminal" 1 r.terminals

let test_interleaving_count_sc () =
  (* two threads with 2 instructions each: C(4,2) = 6 interleavings, but
     states dedup; just check we find both orders of two racing stores *)
  let st =
    mk [ [| I.store ~loc:0 ~src:(I.Imm 1) |]; [| I.store ~loc:0 ~src:(I.Imm 2) |] ]
  in
  let r = E.outcomes Sem.Sc st ~observe:(fun s -> State.mem_read s 0) in
  Alcotest.(check (list int)) "both final values" [ 1; 2 ] (List.map fst r.outcomes)

let test_visited_accounting () =
  let st = mk [ [| I.load ~reg:0 ~loc:0 |]; [| I.load ~reg:0 ~loc:1 |] ] in
  let r = E.outcomes Sem.Sc st ~observe:(fun _ -> ()) in
  (* states: 4 combinations of progress, loads read zeros so registers do
     not distinguish: 00,10,01,11 *)
  Alcotest.(check int) "4 states" 4 r.states_visited;
  Alcotest.(check int) "1 terminal" 1 r.terminals

let test_max_states_cap () =
  let st = mk [ Array.init 10 (fun i -> I.load ~reg:i ~loc:i);
                Array.init 10 (fun i -> I.load ~reg:i ~loc:i) ] in
  (* the cap now degrades gracefully: a partial result with an exhaustion
     record instead of an exception *)
  let r = E.outcomes ~max_states:5 Sem.Sc st ~observe:(fun _ -> ()) in
  (match r.exhausted with
   | None -> Alcotest.fail "expected a partial result"
   | Some e ->
     Alcotest.(check bool) "cause is the work cap" true
       (e.Memrel_prob.Budget.cause = Memrel_prob.Budget.Work));
  (* off-by-one regression: the seed enumerator admitted max_states + 1
     states before aborting; now exactly max_states are expanded *)
  Alcotest.(check int) "exactly max_states expanded" 5 r.states_visited;
  Alcotest.(check bool) "partial terminal count is sane" true
    (r.terminals >= 0 && r.terminals <= 5)

let test_budget_deadline_partial () =
  (* an already-expired deadline stops the exploration before any state is
     admitted; the partial result is well-formed and empty *)
  let st = mk [ Array.init 6 (fun i -> I.load ~reg:i ~loc:i);
                Array.init 6 (fun i -> I.load ~reg:i ~loc:i) ] in
  let budget = Memrel_prob.Budget.create ~deadline_s:0.0 () in
  let r = E.outcomes ~budget Sem.Sc st ~observe:(fun _ -> ()) in
  Alcotest.(check bool) "exhausted" true (r.exhausted <> None);
  Alcotest.(check int) "no states admitted" 0 r.states_visited;
  Alcotest.(check int) "no terminals" 0 r.terminals;
  Alcotest.(check (list unit)) "no outcomes" [] (List.map fst r.outcomes)

let test_budget_complete_run_not_exhausted () =
  (* a generous budget leaves a complete run untouched: same result as no
     budget, exhausted = None, work counter = admitted states *)
  let st = mk [ [| I.load ~reg:0 ~loc:0 |]; [| I.load ~reg:0 ~loc:1 |] ] in
  let budget = Memrel_prob.Budget.create ~max_work:1_000 () in
  let r = E.outcomes ~budget Sem.Sc st ~observe:(fun _ -> ()) in
  Alcotest.(check bool) "not exhausted" true (r.exhausted = None);
  Alcotest.(check int) "4 states" 4 r.states_visited;
  Alcotest.(check int) "work = expanded states" 4 (Memrel_prob.Budget.work_done budget)

let test_cap_counts_expanded_states_only () =
  (* regression: states used to be counted against the cap when PUSHED, so
     the cap could fire while the stack still held unexplored unique states
     — here the terminal state. Space: T0 stores x, T1 stores y; 4 states
     {00,10,01,11}, 1 terminal. Expansion order (LIFO, successors pushed in
     thread order): root, then T1-done, then the terminal. Under the old
     admission-counting, max_states = 3 tripped while admitting the 4th
     state during the SECOND expansion, reporting 3 states "visited" with 0
     terminals and two unexpanded states abandoned on the stack. Counting
     expanded states, the same cap genuinely explores 3 states and reaches
     the terminal. *)
  let st = mk [ [| I.store ~loc:0 ~src:(I.Imm 1) |]; [| I.store ~loc:1 ~src:(I.Imm 1) |] ] in
  let r = E.outcomes ~max_states:3 Sem.Sc st ~observe:(fun s -> State.mem_read s 0) in
  (match r.exhausted with
   | Some e ->
     Alcotest.(check bool) "cause is the work cap" true
       (e.Memrel_prob.Budget.cause = Memrel_prob.Budget.Work);
     Alcotest.(check int) "work units = expanded states" 3 e.Memrel_prob.Budget.work_done
   | None -> Alcotest.fail "expected a partial result");
  Alcotest.(check int) "exactly max_states expanded" 3 r.states_visited;
  Alcotest.(check int) "the in-flight terminal was reached before the cap" 1 r.terminals

let test_max_states_exact_fit () =
  (* the 2x1-load space has exactly 4 states (see visited accounting):
     max_states = 4 must succeed — the cap is "more than", not "at least" *)
  let st = mk [ [| I.load ~reg:0 ~loc:0 |]; [| I.load ~reg:0 ~loc:1 |] ] in
  let r = E.outcomes ~max_states:4 Sem.Sc st ~observe:(fun _ -> ()) in
  Alcotest.(check int) "fits exactly" 4 r.states_visited

let test_reachable_terminal_count () =
  let st =
    mk [ [| I.store ~loc:0 ~src:(I.Imm 1) |]; [| I.store ~loc:0 ~src:(I.Imm 2) |] ]
  in
  Alcotest.(check int) "two terminals" 2 (E.reachable_terminal_count Sem.Sc st)

let test_dedup_effectiveness () =
  (* same program under TSO explores more states than SC (buffer states) *)
  let prog () = [| I.store ~loc:0 ~src:(I.Imm 1); I.load ~reg:0 ~loc:1 |] in
  let st = mk [ prog (); prog () ] in
  let sc = (E.outcomes Sem.Sc st ~observe:(fun _ -> ())).states_visited in
  let tso = (E.outcomes Sem.Tso st ~observe:(fun _ -> ())).states_visited in
  Alcotest.(check bool) (Printf.sprintf "SC %d < TSO %d" sc tso) true (sc < tso)

let test_packed_key_agrees_with_legacy () =
  (* the packed structural key and the legacy printf key must induce the
     same state equivalence: the enumerator (packed keys in an arena set)
     and a plain DFS over the printf key agree on visit/terminal/outcome
     accounting on every corpus test under every discipline *)
  List.iter
    (fun (t : L.t) ->
      List.iter
        (fun (dname, d) ->
          let packed = E.outcomes d (L.initial_state t) ~observe:t.observe in
          let states, terminals, outcomes =
            Legacy_key.enumerate d (L.initial_state t) ~observe:t.observe
          in
          let label = Printf.sprintf "%s/%s" t.name dname in
          Alcotest.(check int) (label ^ " states") states packed.states_visited;
          Alcotest.(check int) (label ^ " terminals") terminals packed.terminals;
          Alcotest.(check bool) (label ^ " outcomes") true (outcomes = packed.outcomes))
        disciplines)
    L.all

let test_por_equals_full_on_corpus () =
  (* soundness validation: the ample-set reduction must preserve outcome
     sets AND per-outcome terminal counts exactly, over the whole corpus
     under all four disciplines, while never visiting more states *)
  List.iter
    (fun (t : L.t) ->
      List.iter
        (fun (dname, d) ->
          let full = E.outcomes d (L.initial_state t) ~observe:t.observe in
          let por = E.outcomes ~por:true d (L.initial_state t) ~observe:t.observe in
          let label = Printf.sprintf "%s/%s" t.name dname in
          Alcotest.(check bool) (label ^ " outcome sets equal") true (full.outcomes = por.outcomes);
          Alcotest.(check int) (label ^ " terminals equal") full.terminals por.terminals;
          Alcotest.(check bool)
            (Printf.sprintf "%s POR states %d <= full %d" label por.states_visited
               full.states_visited)
            true
            (por.states_visited <= full.states_visited))
        disciplines)
    (L.all @ [ L.increment_n 3 ])

(* the depth lemma behind level-local deduplication: each successor (with
   or without the ample-set reduction) is one level deeper than its parent,
   from a root at depth 0 *)
let check_successor_depths label ~buffered st succs =
  let d = State.depth ~buffered st in
  List.iter
    (fun (_, st') ->
      let d' = State.depth ~buffered st' in
      if d' <> d + 1 then Alcotest.failf "%s: a depth-%d state has a depth-%d successor" label d d')
    succs

(* over every reachable state *)
let check_depth_lemma label ~por d root =
  let buffered = Sem.buffered d in
  let packer = State.packer () and seen = Memrel_machine.Arena_set.create () in
  let stack = Stack.create () in
  Alcotest.(check int) (label ^ " root depth") 0 (State.depth ~buffered root);
  Stack.push root stack;
  while not (Stack.is_empty stack) do
    let st = Stack.pop stack in
    let succs = fst (E.expand ~por d st) in
    check_successor_depths label ~buffered st succs;
    List.iter
      (fun (_, st') ->
        State.pack packer st';
        if
          Memrel_machine.Arena_set.add seen (State.packed_bytes packer)
            (State.packed_length packer)
        then Stack.push st' stack)
      succs
  done

(* over the states of [walks] seeded random root-to-terminal paths: the
   full inc6 spaces (222k to 1.3M states) are too large to walk in a unit
   test *)
let check_depth_lemma_sampled label ~walks ~por d root =
  let buffered = Sem.buffered d and rng = Random.State.make [| 6 |] in
  for _ = 1 to walks do
    let rec walk st =
      match fst (E.expand ~por d st) with
      | [] -> ()
      | succs ->
        check_successor_depths label ~buffered st succs;
        walk (snd (List.nth succs (Random.State.int rng (List.length succs))))
    in
    walk root
  done

let test_depth_lemma () =
  let each_discipline f = List.iter (fun (dname, d) -> f dname d) disciplines in
  List.iter
    (fun (t : L.t) ->
      each_discipline (fun dname d ->
          List.iter
            (fun por ->
              check_depth_lemma (Printf.sprintf "%s/%s por=%b" t.name dname por) ~por d
                (L.initial_state t))
            [ false; true ]))
    (L.all @ List.map L.increment_n [ 4; 5 ]);
  let inc6 = L.increment_n 6 in
  each_discipline (fun dname d ->
      List.iter
        (fun por ->
          check_depth_lemma_sampled (Printf.sprintf "inc6/%s por=%b" dname por) ~walks:2000 ~por
            d (L.initial_state inc6))
        [ false; true ])

let outcome_xs (r : L.outcome E.result) =
  List.map (fun (o, _) -> List.assoc "x" o) r.outcomes

let test_increment3_pinned () =
  (* deep-state-space regression pins: exact exhaustive counts for the
     3-thread canonical bug (E14's n = 3 row, now exact) *)
  let t = L.increment_n 3 in
  let sc = L.run_exhaustive t Model.Sequential_consistency in
  Alcotest.(check (list int)) "SC outcome set" [ 1; 2; 3 ] (outcome_xs sc);
  Alcotest.(check int) "SC terminals" 16 sc.terminals;
  Alcotest.(check (list int)) "SC per-outcome terminal counts" [ 4; 6; 6 ]
    (List.map snd sc.outcomes);
  Alcotest.(check int) "SC states" 175 sc.states_visited;
  let tso = L.run_exhaustive t Model.Total_store_order in
  Alcotest.(check (list int)) "TSO outcome set" [ 1; 2; 3 ] (outcome_xs tso);
  Alcotest.(check int) "TSO terminals" 16 tso.terminals;
  Alcotest.(check int) "TSO states" 308 tso.states_visited

let test_increment4_smoke () =
  (* the workload the recursive enumerator could not reach: exhaustive
     n = 4 under SC and TSO, with and without POR, all agreeing *)
  let t = L.increment_n 4 in
  List.iter
    (fun family ->
      let full = L.run_exhaustive t family in
      let por = L.run_exhaustive ~por:true t family in
      Alcotest.(check (list int)) "outcome set is {1..4}" [ 1; 2; 3; 4 ] (outcome_xs full);
      Alcotest.(check int) "109 terminal states" 109 full.terminals;
      Alcotest.(check bool) "POR agrees" true (full.outcomes = por.outcomes);
      Alcotest.(check int) "POR terminals agree" full.terminals por.terminals)
    [ Model.Sequential_consistency; Model.Total_store_order ]

let test_deep_linear_space () =
  (* worklist iteration: a 60-store TSO thread takes 120 transitions to
     drain (60 execs + 60 flushes) — the longest path is 120 deep and must
     enumerate without Stack_overflow *)
  let prog = Array.init 60 (fun i -> I.store ~loc:(i mod 4) ~src:(I.Imm i)) in
  let st = mk [ prog ] in
  let r = E.outcomes ~max_states:500_000 Sem.Tso st ~observe:(fun _ -> ()) in
  Alcotest.(check bool)
    (Printf.sprintf "deep path explored (max_depth %d)" r.stats.max_depth)
    true
    (r.stats.max_depth >= 120);
  Alcotest.(check int) "single terminal (deterministic final memory)" 1 r.terminals

let test_stats_observability () =
  let t = L.increment_n 3 in
  let r = L.run_exhaustive ~por:true t Model.Total_store_order in
  let s = r.stats in
  Alcotest.(check bool) "pruned some transitions" true (s.por_pruned > 0);
  Alcotest.(check bool) "ample states counted" true (s.por_ample_states > 0);
  Alcotest.(check bool) "transitions counted" true (s.transitions > 0);
  Alcotest.(check bool) "frontier tracked" true (s.max_frontier > 0);
  Alcotest.(check bool) "depth tracked" true (s.max_depth > 0);
  Alcotest.(check bool) "elapsed nonnegative" true (s.elapsed_s >= 0.0)

let test_find_incn () =
  Alcotest.(check string) "inc4 resolves" "inc4" (L.find "inc4").L.name;
  Alcotest.(check string) "corpus inc still wins" "inc" (L.find "inc").L.name;
  Alcotest.check_raises "inc1 rejected" Not_found (fun () -> ignore (L.find "inc1"));
  Alcotest.check_raises "incx rejected" Not_found (fun () -> ignore (L.find "incx"))

let test_two_domains_agree () =
  (* serve workers enumerate from several domains at once: each call owns
     its packer, arena and worklist, so concurrent runs cannot interfere *)
  let t = L.increment_n 4 in
  let run () =
    let r = E.outcomes Sem.Tso (L.initial_state t) ~observe:t.L.observe in
    (r.outcomes, r.states_visited, r.terminals, r.stats.transitions, r.stats.dedup_hits)
  in
  let alone = run () in
  let d1 = Domain.spawn run and d2 = Domain.spawn run in
  let r1 = Domain.join d1 and r2 = Domain.join d2 in
  Alcotest.(check bool) "first domain = sequential run" true (r1 = alone);
  Alcotest.(check bool) "second domain = sequential run" true (r2 = alone)

let test_minor_words_per_transition () =
  (* allocation guard: packing into the scratch bytes and probing the arena
     allocate nothing per successor, so what remains is mostly building the
     successor states themselves *)
  let t = L.increment_n 4 in
  let root = L.initial_state t in
  ignore (E.outcomes Sem.Tso root ~observe:t.L.observe);
  let before = Gc.minor_words () in
  let r = E.outcomes Sem.Tso root ~observe:t.L.observe in
  let words = (Gc.minor_words () -. before) /. float_of_int r.stats.transitions in
  Alcotest.(check bool) (Printf.sprintf "%.1f minor words per transition <= 80" words) true
    (words <= 80.0)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("single-thread single outcome", test_single_thread_single_outcome);
      ("racing stores", test_interleaving_count_sc);
      ("state accounting", test_visited_accounting);
      ("max_states cap yields partial result", test_max_states_cap);
      ("deep linear space iterates", test_deep_linear_space);
      ("cap counts expanded states only", test_cap_counts_expanded_states_only);
      ("expired deadline yields empty partial result", test_budget_deadline_partial);
      ("generous budget leaves run complete", test_budget_complete_run_not_exhausted);
      ("max_states exact fit succeeds", test_max_states_exact_fit);
      ("terminal count", test_reachable_terminal_count);
      ("TSO explores more states than SC", test_dedup_effectiveness);
      ("packed key agrees with legacy key", test_packed_key_agrees_with_legacy);
      ("POR preserves outcomes on the corpus", test_por_equals_full_on_corpus);
      ("increment_n 3 exact counts pinned", test_increment3_pinned);
      ("increment_n 4 exhaustive smoke", test_increment4_smoke);
      ("observability counters", test_stats_observability);
      ("find resolves incN names", test_find_incn);
      ("two domains enumerate inc4 identically", test_two_domains_agree);
      ("minor words per transition on inc4/TSO", test_minor_words_per_transition);
      ("depth lemma: every successor is one level deeper", test_depth_lemma);
    ]
