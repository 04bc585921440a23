module X = Memrel_machine.Exec
module E = Memrel_machine.Enumerate
module L = Memrel_machine.Litmus
module Sem = Memrel_machine.Semantics
module State = Memrel_machine.State
module I = Memrel_machine.Instr
module Model = Memrel_memmodel.Model
module Rng = Memrel_prob.Rng
module Ref = Memrel_oracle.Enumerate_reference

let test_run_terminates () =
  let rng = Rng.create 1 in
  List.iter
    (fun (t : L.t) ->
      List.iter
        (fun d ->
          let r = X.run d (L.initial_state t) rng in
          Alcotest.(check bool) (t.name ^ " reaches terminal") true (State.all_done r.final);
          Alcotest.(check int) "trace length = steps" r.steps (List.length r.trace))
        [ Sem.Sc; Sem.Tso; Sem.Pso; Sem.Wo { window = 8 } ])
    L.all

let test_run_deterministic_under_seed () =
  let t = L.find "sb" in
  let run () =
    let rng = Rng.create 33 in
    let r = X.run Sem.Tso (L.initial_state t) rng in
    List.map Ref.label_to_string r.trace
  in
  Alcotest.(check (list string)) "same trace" (run ()) (run ())

let test_step_cap () =
  let st = State.init ~programs:[ [| I.load ~reg:0 ~loc:0 |] ] ~initial_mem:[] in
  let rng = Rng.create 1 in
  (* a one-instruction program terminates in one step, far below any cap *)
  let r = X.run ~max_steps:5 Sem.Sc st rng in
  Alcotest.(check int) "one step" 1 r.steps

let test_estimate_outcome_counts () =
  let rng = Rng.create 5 in
  let t = L.find "inc" in
  let outcomes =
    X.estimate_outcome ~trials:2000 Sem.Sc (L.initial_state t) ~observe:t.observe rng
  in
  let total = List.fold_left (fun a (_, c) -> a + c) 0 outcomes in
  Alcotest.(check int) "counts sum to trials" 2000 total;
  Alcotest.(check bool) "sorted by frequency" true
    (match outcomes with (_, a) :: (_, b) :: _ -> a >= b | _ -> true);
  (* both bug and intended outcomes occur under random scheduling *)
  Alcotest.(check int) "two distinct outcomes" 2 (List.length outcomes)

let test_random_outcomes_within_enumerated () =
  (* anything the random scheduler produces must be in the exhaustive set *)
  let rng = Rng.create 9 in
  List.iter
    (fun name ->
      let t = L.find name in
      List.iter
        (fun (d, family) ->
          let enumerated = List.map fst (fst (L.run_exhaustive t family)).E.outcomes in
          let sampled =
            X.estimate_outcome ~trials:300 d (L.initial_state t) ~observe:t.observe rng
          in
          List.iter
            (fun (o, _) ->
              if not (List.mem o enumerated) then
                Alcotest.fail (name ^ ": random run produced un-enumerated outcome"))
            sampled)
        [ (Sem.Tso, Model.Total_store_order); (Sem.Wo { window = 8 }, Model.Weak_ordering) ])
    [ "sb"; "mp"; "lb"; "inc" ]

let test_bug_rate_increases_with_weakness () =
  (* E13's headline: under uniform random scheduling, the canonical bug
     manifests no less often as the model weakens (SC <= TSO <= WO) *)
  let rate d seed =
    let rng = Rng.create seed in
    let t = L.find "inc" in
    let outcomes =
      X.estimate_outcome ~trials:8000 d (L.initial_state t) ~observe:t.observe rng
    in
    let bug = Option.value ~default:0 (List.assoc_opt [ ("x", 1) ] outcomes) in
    float_of_int bug /. 8000.0
  in
  let sc = rate Sem.Sc 42 and tso = rate Sem.Tso 42 and wo = rate (Sem.Wo { window = 8 }) 42 in
  Alcotest.(check bool)
    (Printf.sprintf "sc=%.3f <= tso=%.3f (+noise)" sc tso)
    true (sc <= tso +. 0.02);
  Alcotest.(check bool) (Printf.sprintf "bug visible everywhere: sc=%.3f wo=%.3f" sc wo) true
    (sc > 0.1 && wo > 0.1)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("runs terminate", test_run_terminates);
      ("deterministic under seed", test_run_deterministic_under_seed);
      ("step accounting", test_step_cap);
      ("estimate_outcome counts", test_estimate_outcome_counts);
      ("random outcomes within enumerated set", test_random_outcomes_within_enumerated);
      ("bug rate vs model weakness", test_bug_rate_increases_with_weakness);
    ]
