(* Sleep sets against the plain-DFS oracle: on seeded random programs the
   enumerator must report exactly what the worklist without sleep sets
   reports — the same terminal states with their counts, states,
   transitions, dedup hits, max depth and max frontier — because a sleeping
   transition's successor is always one the oracle finds already visited.
   The external-memory BFS, whose sleep sets are the intersection over a
   state's admitting edges, must report the same states, transitions,
   dedup hits, terminal states and max depth. *)

module E = Memrel_machine.Enumerate
module X = Memrel_machine.Extmem
module Sem = Memrel_machine.Semantics
module State = Memrel_machine.State
module Ref = Memrel_oracle.Enumerate_reference

let disciplines =
  [ ("SC", Sem.Sc); ("TSO", Sem.Tso); ("PSO", Sem.Pso); ("WO w8", Sem.Wo { window = 8 });
    ("WO w2", Sem.Wo { window = 2 }) ]

let programs = 1000

let counters (r : string E.result) =
  let s = r.E.stats in
  [ ("states", r.E.states_visited); ("terminals", r.E.terminals);
    ("transitions", s.E.transitions); ("dedup hits", s.E.dedup_hits);
    ("max depth", s.E.max_depth); ("max frontier", s.E.max_frontier);
    ("POR ample states", s.E.por_ample_states); ("POR pruned", s.E.por_pruned);
    ("complete", Bool.to_int (r.E.exhausted = None)) ]

(* the enumerator against the oracle on one run; its states *)
let check label ?max_states ?por d root =
  let observe = State.packed_key in
  let got = E.outcomes ?max_states ?por d root ~observe in
  let want = Ref.outcomes ?max_states ?por d root ~observe in
  List.iter2
    (fun (name, g) (_, w) -> if g <> w then Alcotest.failf "%s: %s %d, plain DFS %d" label name g w)
    (counters got) (counters want);
  if got.E.outcomes <> want.E.outcomes then Alcotest.failf "%s: terminal states differ" label;
  got.E.states_visited

(* every program under every discipline, complete; every tenth also capped
   at half its states, and with POR (where every sleep set is 0) *)
let test_random_programs () =
  for seed = 1 to programs do
    let rng = Random.State.make [| seed |] in
    let root = State.init ~programs:(Ref.random_programs rng) ~initial_mem:[] in
    List.iter
      (fun (dname, d) ->
        let label = Printf.sprintf "seed %d %s" seed dname in
        let states = check label d root in
        if seed mod 10 = 0 then begin
          ignore (check (label ^ " capped") ~max_states:(max 1 (states / 2)) d root);
          ignore (check (label ^ " por") ~por:true d root)
        end)
      disciplines
  done

(* every program under every discipline through Extmem, at the default
   budget and at the 64 KiB floor, where a level of a few thousand
   successors overflows the arena and its sleep sets are ANDed in the
   merge *)
let test_random_programs_extmem () =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "memrel_sleep_extmem_%d" (Unix.getpid ()))
  in
  let merged = ref 0 in
  Fun.protect
    ~finally:(fun () -> X.remove_spill_dir dir)
    (fun () ->
      for seed = 1 to programs do
        let rng = Random.State.make [| seed |] in
        let root = State.init ~programs:(Ref.random_programs rng) ~initial_mem:[] in
        List.iter
          (fun (dname, d) ->
            let observe = State.packed_key in
            let want = Ref.outcomes d root ~observe in
            List.iter
              (fun mem_budget_bytes ->
                let label =
                  Printf.sprintf "seed %d %s extmem budget %s" seed dname
                    (Option.fold ~none:"default" ~some:string_of_int mem_budget_bytes)
                in
                let x =
                  X.outcomes ?mem_budget_bytes ~spill_dir:dir ~resume_key:label d root ~observe
                in
                if x.X.ext.X.merges > 0 then incr merged;
                let got = x.X.base in
                (* Extmem's max frontier is its widest level *)
                let bfs r = List.remove_assoc "max frontier" (counters r) in
                List.iter2
                  (fun (name, g) (_, w) ->
                    if g <> w then Alcotest.failf "%s: %s %d, plain DFS %d" label name g w)
                  (bfs got) (bfs want);
                if got.E.outcomes <> want.E.outcomes then
                  Alcotest.failf "%s: terminal states differ" label)
              [ None; Some 65536 ])
          disciplines
      done);
  Alcotest.(check bool)
    (Printf.sprintf "some runs merge overflow runs (%d)" !merged)
    true (!merged > 0)

let suite =
  [ Alcotest.test_case
      (Printf.sprintf "%d random programs x 5 disciplines = plain DFS" programs)
      `Quick test_random_programs;
    Alcotest.test_case
      (Printf.sprintf "%d random programs x 5 disciplines through Extmem = plain DFS" programs)
      `Quick test_random_programs_extmem ]
