(* Label codes and enabled bitsets against the list rules they replaced
   (Memrel_oracle.Enumerate_reference): at every reachable state the list
   view equals the reference lists, and a successor's bitset built from its
   parent's, with only the moved thread's codes redone, equals the one
   computed from scratch. Programs past one word of codes run through the
   in-RAM worklist against the plain-DFS oracle. *)

module E = Memrel_machine.Enumerate
module L = Memrel_machine.Litmus
module I = Memrel_machine.Instr
module Sem = Memrel_machine.Semantics
module State = Memrel_machine.State
module Ref = Memrel_oracle.Enumerate_reference

let disciplines =
  [ ("SC", Sem.Sc); ("TSO", Sem.Tso); ("PSO", Sem.Pso); ("WO w8", Sem.Wo { window = 8 });
    ("WO w2", Sem.Wo { window = 2 }) ]

let labels ls = String.concat " " (List.map Ref.label_to_string ls)

let thread_of = function Sem.Exec { thread; _ } | Sem.Flush { thread; _ } -> thread

(* every state reachable from [root], each checked once *)
let check_space name d root =
  let codes = Sem.codes d root in
  let seen = Hashtbl.create 1024 and work = Stack.create () in
  let full st =
    let bits = Sem.bitset codes in
    Sem.state_bits codes bits st;
    bits
  in
  let admit st =
    let k = State.packed_key st in
    if not (Hashtbl.mem seen k) then begin
      Hashtbl.add seen k ();
      Stack.push st work
    end
  in
  admit root;
  while not (Stack.is_empty work) do
    let st = Stack.pop work in
    let want = Ref.enabled d st in
    let expect what got want =
      if got <> want then
        Alcotest.failf "%s: %s gives [%s], the list rules [%s]" name what (labels got) (labels want)
    in
    expect "enabled" (Sem.enabled d st) want;
    expect "the bitset" (Sem.labels codes (full st)) want;
    Array.iteri
      (fun k _ ->
        expect (Printf.sprintf "thread_enabled %d" k) (Sem.thread_enabled d st k)
          (Ref.thread_enabled d st k))
      st.State.threads;
    let parent = full st in
    List.iter
      (fun l ->
        let st' = Sem.step d st l in
        let bits = Array.copy parent in
        Sem.thread_bits codes bits st' (thread_of l);
        if bits <> full st' then
          Alcotest.failf "%s: after %s the moved thread's codes are stale" name
            (Ref.label_to_string l);
        admit st')
      want
  done;
  Hashtbl.length seen

let test_corpus () =
  let tests = L.all @ [ L.increment_n 3 ] in
  let states = ref 0 in
  List.iter
    (fun (t : L.t) ->
      List.iter
        (fun (dname, d) ->
          states := !states + check_space (t.L.name ^ " " ^ dname) d (L.initial_state t))
        disciplines)
    tests;
  Alcotest.(check bool) (Printf.sprintf "%d states checked" !states) true (!states > 1000)

(* Extmem's runs hold sleep sets in the numbering they have always had:
   thread by thread, each instruction, then each location's flush, lowest
   location first. Codes list PSO flushes highest location first. *)
let test_two_location_sleep_bits () =
  let t = L.find "2+2w" in
  let root = L.initial_state t in
  let sp = E.space ~por:false Sem.Pso root in
  let codes = E.codes sp in
  let got =
    List.init (Sem.code_count codes) (fun c ->
        (Ref.label_to_string (Sem.label codes c), E.renumber sp (1 lsl c)))
  in
  let want =
    [ ("T0.exec[0]", 1 lsl 0); ("T0.exec[1]", 1 lsl 1); ("T0.flush[1]", 1 lsl 3);
      ("T0.flush[0]", 1 lsl 2); ("T1.exec[0]", 1 lsl 4); ("T1.exec[1]", 1 lsl 5);
      ("T1.flush[1]", 1 lsl 7); ("T1.flush[0]", 1 lsl 6) ]
  in
  Alcotest.(check (list (pair string int))) "codes and their sleep bits" want got;
  Alcotest.(check int) "one byte of sleep set" 1 (E.sleep_bytes sp);
  List.iter
    (fun (_, b) -> Alcotest.(check int) "its own inverse" b (E.renumber sp (E.renumber sp b)))
    got

let programs = 1000

let counters (r : string E.result) =
  let s = r.E.stats in
  [ ("states", r.E.states_visited); ("terminals", r.E.terminals);
    ("transitions", s.E.transitions); ("dedup hits", s.E.dedup_hits);
    ("max depth", s.E.max_depth); ("max frontier", s.E.max_frontier);
    ("complete", Bool.to_int (r.E.exhausted = None)) ]

(* the oracle first: it caps the engine at its own count, so a runaway
   engine stops there and fails on "complete" *)
let check label ?max_states d root =
  let observe = State.packed_key in
  let want = Ref.outcomes ?max_states d root ~observe in
  let got = E.outcomes ~max_states:want.E.states_visited d root ~observe in
  List.iter2
    (fun (name, g) (_, w) -> if g <> w then Alcotest.failf "%s: %s %d, plain DFS %d" label name g w)
    (counters got) (counters want);
  if got.E.outcomes <> want.E.outcomes then Alcotest.failf "%s: terminal states differ" label

(* the differential's programs past 62 codes: two leading threads of 31
   register-only instructions put every other thread's codes past the
   first word, under a 150-state cap; and under TSO/PSO, where each thread
   has a flush code per location of the layout, a bound location 60 makes
   the complete spaces wider than a word *)
let test_wide_programs () =
  let pad = Array.init 31 (fun i -> I.binop ~dst:(i mod 3) I.Add (I.Reg (i mod 3)) (I.Imm 1)) in
  for seed = 1 to programs do
    let rng = Random.State.make [| seed |] in
    let progs = Ref.random_programs rng in
    let padded = State.init ~programs:(pad :: pad :: progs) ~initial_mem:[] in
    List.iter
      (fun (dname, d) ->
        check (Printf.sprintf "seed %d %s padded" seed dname) ~max_states:150 d padded;
        if Sem.buffered d then
          check (Printf.sprintf "seed %d %s wide layout" seed dname) d
            (State.init ~programs:progs ~initial_mem:[ (60, 1) ]))
      disciplines
  done

let suite =
  [ Alcotest.test_case "list view = list rules at every reachable corpus state" `Quick test_corpus;
    Alcotest.test_case "2+2w PSO sleep bits pinned" `Quick test_two_location_sleep_bits;
    Alcotest.test_case
      (Printf.sprintf "%d random programs past 62 codes x 5 disciplines = plain DFS" programs)
      `Quick test_wide_programs ]
