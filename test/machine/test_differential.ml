(* Axiomatic-vs-operational differential: for every corpus litmus test and
   every model family, the outcome set allowed by the event-graph axioms
   (lib/axiom) must equal the outcome set reachable by the operational
   machine. This is the acceptance criterion of the axiomatic subsystem —
   two independent encodings of each memory model agreeing on every
   program shape the corpus exercises (fences, rmw, 2-4 threads, shared
   and disjoint locations). *)

module L = Memrel_machine.Litmus
module P = Memrel_machine.Parse
module D = Memrel_axiom.Differential
module Model = Memrel_memmodel.Model

(* the operational side is capped at the plain-DFS oracle's count of the
   whole space: an engine fault that makes a space unbounded fails the test
   there instead of growing to the default 2,000,000 states *)
let max_states = Memrel_oracle.Enumerate_reference.litmus_states

let check_test (t : L.t) () =
  List.iter
    (fun family ->
      let r = D.run ~max_states:(max_states t family) t family in
      if not r.D.agree then
        Alcotest.fail
          (Printf.sprintf "%s under %s:\n%s" t.L.name (Model.family_name family)
             (D.describe r)))
    D.standard_families

let read path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let check_file file () = check_test (P.parse (read file)) ()

(* small WO windows change both sides (operationally: less reordering;
   axiomatically: more window edges) — they must keep agreeing, down to
   window = 1 where WO collapses to in-order execution *)
let check_windows (t : L.t) () =
  List.iter
    (fun window ->
      let max_states = max_states ~window t Model.Weak_ordering in
      let r = D.run ~window ~max_states t Model.Weak_ordering in
      if not r.D.agree then
        Alcotest.fail (Printf.sprintf "%s under WO window=%d:\n%s" t.L.name window (D.describe r)))
    [ 1; 2; 3 ]

let suite =
  List.map
    (fun (t : L.t) ->
      Alcotest.test_case (Printf.sprintf "%s axiomatic = operational" t.L.name) `Quick
        (check_test t))
    L.all
  @ [
      Alcotest.test_case "inc3 axiomatic = operational" `Quick (check_test (L.increment_n 3));
      Alcotest.test_case "inc4 axiomatic = operational" `Slow (check_test (L.increment_n 4));
      Alcotest.test_case "dekker file axiomatic = operational" `Quick
        (check_file "litmus_files/dekker_attempt.litmus");
      Alcotest.test_case "dekker fenced file axiomatic = operational" `Quick
        (check_file "litmus_files/dekker_fenced.litmus");
      Alcotest.test_case "seqlock file axiomatic = operational" `Quick
        (check_file "litmus_files/seqlock_read.litmus");
      Alcotest.test_case "ticket rmw file axiomatic = operational" `Quick
        (check_file "litmus_files/ticket_counter.litmus");
      Alcotest.test_case "sb agrees at small WO windows" `Quick (check_windows (L.find "sb"));
      Alcotest.test_case "lb agrees at small WO windows" `Quick (check_windows (L.find "lb"));
      Alcotest.test_case "iriw agrees at small WO windows" `Quick
        (check_windows (L.find "iriw"));
    ]
