(* The .litmus files shipped under examples/litmus/ must parse and behave as
   their header comments claim. The dune stanza copies them next to the test
   binary. *)

module P = Memrel_machine.Parse
module L = Memrel_machine.Litmus
module E = Memrel_machine.Enumerate
module Model = Memrel_memmodel.Model

let read path =
  let ic = open_in path in
  let len = in_channel_length ic in
  let s = really_input_string ic len in
  close_in ic;
  s

let reachable t family =
  List.mem_assoc t.L.relaxed_outcome (fst (L.run_exhaustive t family)).E.outcomes

let families =
  [ Model.Sequential_consistency; Model.Total_store_order; Model.Partial_store_order;
    Model.Weak_ordering ]

let check_file file expected_reachable () =
  let t = P.parse (read file) in
  List.iter2
    (fun family expected ->
      let got = reachable t family in
      if got <> expected then
        Alcotest.fail
          (Printf.sprintf "%s: expected reachable=%b got %b" t.L.name expected got))
    families expected_reachable

(* the named classics also ship as files; the parsed program must reproduce
   the builtin corpus entry exactly — same outcome set under every model,
   resolvable through Litmus.find under the same name *)
let check_matches_builtin file () =
  let t = P.parse (read file) in
  let builtin =
    try L.find t.L.name
    with Not_found -> Alcotest.fail (Printf.sprintf "%s not in Litmus.find" t.L.name)
  in
  Alcotest.(check (list (list (pair string int))))
    "relaxed outcome" [ t.L.relaxed_outcome ] [ builtin.L.relaxed_outcome ];
  List.iter
    (fun family ->
      Alcotest.(check (list (list (pair string int))))
        (Printf.sprintf "%s under %s" t.L.name (Model.family_name family))
        (E.outcome_set (fst (L.run_exhaustive builtin family)))
        (E.outcome_set (fst (L.run_exhaustive t family))))
    families

let suite =
  [
    Alcotest.test_case "dekker entry broken from TSO up" `Quick
      (check_file "litmus_files/dekker_attempt.litmus" [ false; true; true; true ]);
    Alcotest.test_case "dekker entry fixed by full fences" `Quick
      (check_file "litmus_files/dekker_fenced.litmus" [ false; false; false; false ]);
    Alcotest.test_case "seqlock torn read from PSO up" `Quick
      (check_file "litmus_files/seqlock_read.litmus" [ false; false; true; true ]);
    Alcotest.test_case "atomic tickets never duplicate" `Quick
      (check_file "litmus_files/ticket_counter.litmus" [ false; false; false; false ]);
    Alcotest.test_case "sb relaxed from TSO up" `Quick
      (check_file "litmus_files/sb.litmus" [ false; true; true; true ]);
    Alcotest.test_case "mp relaxed from PSO up" `Quick
      (check_file "litmus_files/mp.litmus" [ false; false; true; true ]);
    Alcotest.test_case "lb relaxed only under WO" `Quick
      (check_file "litmus_files/lb.litmus" [ false; false; false; true ]);
    Alcotest.test_case "iriw relaxed only under WO" `Quick
      (check_file "litmus_files/iriw.litmus" [ false; false; false; true ]);
    Alcotest.test_case "sb file matches builtin corpus entry" `Quick
      (check_matches_builtin "litmus_files/sb.litmus");
    Alcotest.test_case "mp file matches builtin corpus entry" `Quick
      (check_matches_builtin "litmus_files/mp.litmus");
    Alcotest.test_case "lb file matches builtin corpus entry" `Quick
      (check_matches_builtin "litmus_files/lb.litmus");
    Alcotest.test_case "iriw file matches builtin corpus entry" `Quick
      (check_matches_builtin "litmus_files/iriw.litmus");
  ]
