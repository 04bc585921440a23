module E = Memrel_machine.Enumerate
module X = Memrel_machine.Extmem
module Sem = Memrel_machine.Semantics
module State = Memrel_machine.State
module L = Memrel_machine.Litmus
module B = Memrel_prob.Budget

let disciplines =
  [ ("SC", Sem.Sc); ("TSO", Sem.Tso); ("PSO", Sem.Pso); ("WO", Sem.Wo { window = 3 }) ]

let fresh_dir =
  let n = ref 0 in
  fun () ->
    incr n;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "memrel_extmem_test_%d_%d" (Unix.getpid ()) !n)

let with_dir f =
  let dir = fresh_dir () in
  Fun.protect ~finally:(fun () -> X.remove_spill_dir dir) (fun () -> f dir)

let key t dname por = Printf.sprintf "%s|%s|por%b" (L.hash t) dname por

let tiny_budget = 65536

let outcomes_t = Alcotest.(list (pair (list (pair string int)) int))

(* the whole contract in one checker: on complete runs every base field the
   in-RAM engine produces — outcome sets WITH per-outcome terminal counts,
   states, terminals, transitions, dedup hits — must match exactly *)
let check_base ctx (ram : _ E.result) (ext : _ E.result) =
  Alcotest.check outcomes_t (ctx "outcomes + per-outcome terminal counts") ram.E.outcomes
    ext.E.outcomes;
  Alcotest.(check int) (ctx "states") ram.E.states_visited ext.E.states_visited;
  Alcotest.(check int) (ctx "terminals") ram.E.terminals ext.E.terminals;
  Alcotest.(check int) (ctx "transitions") ram.E.stats.E.transitions ext.E.stats.E.transitions;
  Alcotest.(check int) (ctx "dedup hits") ram.E.stats.E.dedup_hits ext.E.stats.E.dedup_hits;
  Alcotest.(check bool) (ctx "complete") true (ext.E.exhausted = None)

(* parity at the default budget and at [tiny_budget], where the wider
   levels overflow the arena into runs that are merged at the level end *)
let check_parity ~por name t dname d =
  let st = L.initial_state t in
  let observe = t.L.observe in
  let ram = E.outcomes ~por d st ~observe in
  List.iter
    (fun mem_budget_bytes ->
      with_dir (fun dir ->
          let ext =
            X.outcomes ?mem_budget_bytes ~por ~spill_dir:dir ~resume_key:(key t dname por) d st
              ~observe
          in
          let ctx =
            Printf.sprintf "%s/%s por=%b budget=%s: %s" name dname por
              (match mem_budget_bytes with Some b -> string_of_int b | None -> "default")
          in
          check_base ctx ram ext.X.base))
    [ None; Some tiny_budget ]

let test_corpus_parity () =
  List.iter
    (fun t ->
      List.iter
        (fun (dname, d) ->
          check_parity ~por:false t.L.name t dname d;
          check_parity ~por:true t.L.name t dname d)
        disciplines)
    L.all

let inc_parity names () =
  List.iter
    (fun name ->
      let t = L.find name in
      List.iter
        (fun (dname, d) ->
          check_parity ~por:false name t dname d;
          check_parity ~por:true name t dname d)
        disciplines)
    names

let spill_files dir =
  Sys.readdir dir |> Array.to_list |> List.filter (fun f -> f <> "MANIFEST") |> List.sort compare

(* the key count a run file declares: its payload opens with it *)
let run_keys dir f =
  match Memrel_prob.Snapshot.read ~file:(Filename.concat dir f) ~tag:"extmem/run" with
  | Error e -> Alcotest.failf "%s: %s" f (Memrel_prob.Snapshot.error_to_string e)
  | Ok payload ->
    let rec uvarint i shift acc =
      let b = Char.code payload.[i] in
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else uvarint (i + 1) (shift + 7) acc
    in
    uvarint 0 0 0

(* reachable states per depth, by an in-RAM walk: by the depth lemma,
   the widths of the BFS levels *)
let level_widths d root =
  let buffered = Sem.buffered d in
  let seen = Hashtbl.create 4096 and widths = Hashtbl.create 32 in
  let rec go = function
    | [] -> ()
    | st :: rest ->
      let k = State.depth ~buffered st in
      Hashtbl.replace widths k (1 + Option.value ~default:0 (Hashtbl.find_opt widths k));
      go
        (List.fold_left
           (fun acc (_, st') ->
             let key = State.packed_key st' in
             if Hashtbl.mem seen key then acc
             else begin
               Hashtbl.replace seen key ();
               st' :: acc
             end)
           rest
           (fst (E.expand ~por:false d st)))
  in
  Hashtbl.replace seen (State.packed_key root) ();
  go [ root ];
  List.init (Hashtbl.length widths) (Hashtbl.find widths)

let test_tiny_budget_overflows_and_merges () =
  (* a 64 KiB budget on inc5/TSO (64k states) overflows the arena into
     runs on the wider levels, which are merged at the level end — and
     stays exact *)
  let t = L.find "inc5" in
  let st = L.initial_state t and observe = t.L.observe in
  let rk = key t "TSO" false in
  with_dir (fun dir ->
      let ram = E.outcomes Sem.Tso st ~observe in
      let ext =
        X.outcomes ~mem_budget_bytes:tiny_budget ~spill_dir:dir ~resume_key:rk Sem.Tso st
          ~observe
      in
      check_base (( ^ ) "inc5/TSO tiny: ") ram ext.X.base;
      let e = ext.X.ext in
      Alcotest.(check bool)
        (Printf.sprintf "multiple overflow runs (got %d)" e.X.spill_generations)
        true (e.X.spill_generations >= 2);
      Alcotest.(check bool)
        (Printf.sprintf "runs merged (got %d)" e.X.merges)
        true (e.X.merges > 0);
      Alcotest.(check bool) "spilled bytes" true (e.X.spill_bytes > 0);
      Alcotest.(check (list string)) "a complete run leaves only the manifest" []
        (spill_files dir));
  (* stop the run at the start of every level in turn (a state cap at the
     level boundary) and resume it: after each complete level the spill
     directory holds the manifest and that level's frontier runs only *)
  with_dir (fun dir ->
      let widths = level_widths Sem.Tso st in
      let boundary = ref 0 in
      List.iteri
        (fun level width ->
          if level > 0 then begin
            let r =
              X.outcomes ~max_states:!boundary ~mem_budget_bytes:tiny_budget ~resume:(level > 1)
                ~spill_dir:dir ~resume_key:rk Sem.Tso st ~observe
            in
            Alcotest.(check int)
              (Printf.sprintf "level %d: stopped at its first state" level)
              !boundary r.X.base.E.states_visited;
            let files = spill_files dir in
            List.iter
              (fun f ->
                if not (Filename.check_suffix f ".run") then
                  Alcotest.failf "level %d: stray spill file %s" level f)
              files;
            Alcotest.(check int)
              (Printf.sprintf "level %d: the runs hold exactly the frontier" level)
              width
              (List.fold_left (fun n f -> n + run_keys dir f) 0 files)
          end;
          boundary := !boundary + width)
        widths;
      let full =
        X.outcomes ~mem_budget_bytes:tiny_budget ~resume:true ~spill_dir:dir ~resume_key:rk
          Sem.Tso st ~observe
      in
      Alcotest.(check int) "chained resumes complete" (List.fold_left ( + ) 0 widths)
        full.X.base.E.states_visited)

(* "kill" a run mid-level with a work cap, resume it, and compare with an
   uninterrupted run: every base field and spill counter is identical *)
let check_kill_resume ?mem_budget_bytes ~cap name =
  let t = L.find name in
  let st = L.initial_state t in
  let observe = t.L.observe in
  let rk = key t "TSO" false in
  let run ?budget ?(resume = false) dir =
    X.outcomes ?budget ?mem_budget_bytes ~resume ~spill_dir:dir ~resume_key:rk Sem.Tso st
      ~observe
  in
  let ctx s = Printf.sprintf "%s cap %d: %s" name cap s in
  with_dir (fun refdir ->
      let full = run refdir in
      with_dir (fun dir ->
          let part = run ~budget:(B.create ~max_work:cap ()) dir in
          Alcotest.(check bool) (ctx "partial run tripped") true (part.X.base.E.exhausted <> None);
          Alcotest.(check int) (ctx "partial expanded exactly the cap") cap
            part.X.base.E.states_visited;
          let res = run ~resume:true dir in
          Alcotest.(check bool) (ctx "resume recorded") true (res.X.ext.X.resumed_at_level <> None);
          check_base ctx full.X.base res.X.base;
          Alcotest.(check bool) (ctx "spill counters identical") true
            ({ res.X.ext with X.resumed_at_level = None } = full.X.ext);
          (* resuming an already-complete run replays nothing and returns
             the same final result *)
          let again = run ~resume:true dir in
          check_base (fun s -> ctx ("re-resume " ^ s)) full.X.base again.X.base))

let test_kill_resume_bit_identical () = check_kill_resume ~cap:1200 "inc4"

let test_kill_resume_tiny_budget () =
  (* the cap falls inside a level that overflows the 64 KiB arena *)
  check_kill_resume ~mem_budget_bytes:tiny_budget ~cap:30_000 "inc5"

let test_orphan_files_cleaned_on_resume () =
  let t = L.find "inc3" in
  let st = L.initial_state t in
  let observe = t.L.observe in
  let rk = key t "SC" false in
  with_dir (fun dir ->
      let b = B.create ~max_work:50 () in
      ignore (X.outcomes ~budget:b ~spill_dir:dir ~resume_key:rk Sem.Sc st ~observe);
      (* crash artifacts: a stray half-written tmp and an unreferenced run *)
      let drop name contents =
        let oc = open_out (Filename.concat dir name) in
        output_string oc contents;
        close_out oc
      in
      drop "r999999.run" "garbage not in any manifest";
      drop "r999998.run.tmp" "torn write";
      let full = X.outcomes ~resume:true ~spill_dir:dir ~resume_key:rk Sem.Sc st ~observe in
      Alcotest.(check bool) "completed" true (full.X.base.E.exhausted = None);
      Alcotest.(check int) "inc3 states" 175 full.X.base.E.states_visited;
      Alcotest.(check int) "inc3 terminals" 16 full.X.base.E.terminals;
      Alcotest.(check bool) "orphan run removed" false
        (Sys.file_exists (Filename.concat dir "r999999.run"));
      Alcotest.(check bool) "torn tmp removed" false
        (Sys.file_exists (Filename.concat dir "r999998.run.tmp")))

let expect_spill_error label f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Spill_error" label
  | exception X.Spill_error msg ->
    Alcotest.(check bool)
      (label ^ ": one-line message")
      false
      (String.contains msg '\n')

let test_truncated_run_rejected () =
  let t = L.find "inc3" in
  let st = L.initial_state t in
  let observe = t.L.observe in
  let rk = key t "TSO" false in
  with_dir (fun dir ->
      let b = B.create ~max_work:100 () in
      ignore (X.outcomes ~budget:b ~spill_dir:dir ~resume_key:rk Sem.Tso st ~observe);
      (* mid-level kill simulation: truncate a manifest-referenced run *)
      let victim =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun f -> Filename.check_suffix f ".run")
        |> List.sort compare |> List.hd
      in
      let path = Filename.concat dir victim in
      let size = (Unix.stat path).Unix.st_size in
      let fd = Unix.openfile path [ Unix.O_WRONLY ] 0 in
      ignore (Unix.ftruncate fd (size / 2));
      Unix.close fd;
      expect_spill_error "truncated spill run" (fun () ->
          X.outcomes ~resume:true ~spill_dir:dir ~resume_key:rk Sem.Tso st ~observe))

let test_resume_key_mismatch_rejected () =
  let t = L.find "sb" in
  let st = L.initial_state t in
  let observe = t.L.observe in
  with_dir (fun dir ->
      ignore (X.outcomes ~spill_dir:dir ~resume_key:"sb|TSO" Sem.Tso st ~observe);
      expect_spill_error "resume key mismatch" (fun () ->
          X.outcomes ~resume:true ~spill_dir:dir ~resume_key:"sb|SC" Sem.Sc st ~observe))

let test_resume_without_manifest_rejected () =
  with_dir (fun dir ->
      let t = L.find "sb" in
      expect_spill_error "missing manifest" (fun () ->
          X.outcomes ~resume:true ~spill_dir:dir ~resume_key:"sb|TSO" Sem.Tso
            (L.initial_state t) ~observe:t.L.observe))

let test_old_manifest_version_rejected () =
  (* a spill directory from the earlier layout (visited runs, bloom
     counters) carries the "extmem/manifest" tag: resuming it must fail
     with a typed one-line error, never misparse its fields *)
  let t = L.find "sb" in
  let st = L.initial_state t in
  with_dir (fun dir ->
      ignore
        (X.outcomes ~budget:(B.create ~max_work:3 ()) ~spill_dir:dir ~resume_key:"sb|TSO" Sem.Tso
           st ~observe:t.L.observe);
      (match
         Memrel_prob.Snapshot.write ~file:(Filename.concat dir "MANIFEST") ~tag:"extmem/manifest"
           "\006sb|TSO\000\001"
       with
       | Ok () -> ()
       | Error e -> Alcotest.fail (Memrel_prob.Snapshot.error_to_string e));
      Alcotest.(check bool) "old manifest found" true (X.can_resume dir);
      expect_spill_error "pre-level-local manifest" (fun () ->
          X.outcomes ~resume:true ~spill_dir:dir ~resume_key:"sb|TSO" Sem.Tso st
            ~observe:t.L.observe))

let test_fresh_run_clears_stale_spill_state () =
  (* without ~resume a directory is an output path, not state: stale runs
     from a different enumeration must not leak into the result *)
  let t = L.find "mp" in
  let st = L.initial_state t in
  let observe = t.L.observe in
  with_dir (fun dir ->
      ignore (X.outcomes ~spill_dir:dir ~resume_key:"mp|TSO" Sem.Tso st ~observe);
      let ram = E.outcomes Sem.Sc st ~observe in
      let ext = X.outcomes ~spill_dir:dir ~resume_key:"mp|SC" Sem.Sc st ~observe in
      Alcotest.(check (list (pair (list (pair string int)) int)))
        "fresh run over stale dir is exact" ram.E.outcomes ext.X.base.E.outcomes)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("corpus parity with in-RAM engine (4 disciplines, +-POR, 2 budgets)",
       test_corpus_parity);
      ("inc3/inc4 parity (4 disciplines, +-POR, 2 budgets)", inc_parity [ "inc3"; "inc4" ]);
      ("tiny memory budget forces >=2 spill runs, merges them, one level on disk",
       test_tiny_budget_overflows_and_merges);
      ("kill + resume is bit-identical to an uninterrupted run",
       test_kill_resume_bit_identical);
      ("orphan crash artifacts are cleaned on resume", test_orphan_files_cleaned_on_resume);
      ("truncated spill run rejected with typed error", test_truncated_run_rejected);
      ("resume key mismatch rejected", test_resume_key_mismatch_rejected);
      ("resume without manifest rejected", test_resume_without_manifest_rejected);
      ("fresh run clears stale spill state", test_fresh_run_clears_stale_spill_state);
      ("inc5 parity (4 disciplines, +-POR, 2 budgets)", inc_parity [ "inc5" ]);
      ("kill + resume at a 64 KiB budget is bit-identical", test_kill_resume_tiny_budget);
      ("pre-level-local manifest version rejected", test_old_manifest_version_rejected);
    ]
