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

(* every run below is capped at a state count the test pins or at the
   plain-DFS oracle's count of the whole space: an engine fault that makes
   a space unbounded fails the test at that many states instead of growing
   to the default 2,000,000 *)
let oracle = Memrel_oracle.Enumerate_reference.states

let inc5_tso_states = 64_050
let inc6_tso_states = 1_262_849

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
  let max_states = oracle d st in
  let ram = E.outcomes ~max_states ~por d st ~observe in
  List.iter
    (fun mem_budget_bytes ->
      with_dir (fun dir ->
          let ext =
            X.outcomes ~max_states ?mem_budget_bytes ~por ~spill_dir:dir
              ~resume_key:(key t dname por) d st ~observe
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

(* a run file's entries, in order: each key with the length of the
   prefix it shares with the previous key and its sleep set. The payload
   is the key count, then per key the shared-prefix length, the suffix
   length, the suffix bytes and the sleep set, as varints. *)
let run_deltas dir f =
  match Memrel_prob.Snapshot.read ~file:(Filename.concat dir f) ~tag:"extmem/run2" with
  | Error e -> Alcotest.failf "%s: %s" f (Memrel_prob.Snapshot.error_to_string e)
  | Ok payload ->
    let p = ref 0 in
    let rec uvarint shift acc =
      let b = Char.code payload.[!p] in
      incr p;
      let acc = acc lor ((b land 0x7f) lsl shift) in
      if b land 0x80 = 0 then acc else uvarint (shift + 7) acc
    in
    let prev = ref "" in
    List.init (uvarint 0 0) (fun _ ->
        let plen = uvarint 0 0 in
        let slen = uvarint 0 0 in
        let key = String.sub !prev 0 plen ^ String.sub payload !p slen in
        p := !p + slen;
        prev := key;
        (plen, key, uvarint 0 0))

let run_entries dir f = List.map (fun (_, key, mask) -> (key, mask)) (run_deltas dir f)

let run_keys dir f = List.length (run_entries dir f)

(* run [name] under TSO level by level: a state cap at each level
   boundary stops the run with that level's frontier on disk, and a resume
   goes on. Returns the complete run's result and a digest of every
   frontier's keys in the order the runs hold them, sleep sets stripped:
   the digest follows from the key bytes and their sort order alone, so
   it does not move with the run format. A boundary past the [states] of
   the whole space fails. *)
let frontier_digest ~mem_budget_bytes ~states name =
  let t = L.find name in
  let st = L.initial_state t and rk = key t "TSO" false in
  with_dir (fun dir ->
      let rec go level boundary digest =
        if boundary > states then
          Alcotest.failf "%s: level %d starts past %d states" name level states;
        let r =
          X.outcomes ~max_states:boundary ~mem_budget_bytes ~resume:(level > 0) ~spill_dir:dir
            ~resume_key:rk Sem.Tso st ~observe:t.L.observe
        in
        if r.X.base.E.exhausted = None then (Digest.to_hex digest, r)
        else begin
          let keys =
            List.concat_map (fun f -> List.map fst (run_entries dir f)) (spill_files dir)
          in
          go (level + 1) (boundary + List.length keys)
            (Digest.string (digest ^ String.concat "" keys))
        end
      in
      go 0 0 (Digest.string ""))

(* reachable states per depth, by an in-RAM walk: by the depth lemma,
   the widths of the BFS levels *)
let level_widths d root =
  let buffered = Sem.buffered d in
  let seen = Hashtbl.create 4096 and widths = Hashtbl.create 32 in
  let rec go = function
    | [] -> ()
    | st :: rest ->
      let k = Memrel_oracle.state_depth ~buffered st in
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

(* The spill stream's counters, pinned: run files and their payload bytes
   follow from the key bytes, their sort order and their sleep sets, so a
   change to any of them (a key packed differently, a different order out
   of the arena, a sleep set computed or merged differently) fails here
   even when every result field still matches. The frontier digests pin
   the keys and their order alone; they were taken before the run entries
   carried sleep sets, and have not moved. *)
let check_spill_stream label ~levels ~runs ~bytes ~generations ~merges (e : X.ext_stats) =
  let check what = Alcotest.(check int) (Printf.sprintf "%s: %s" label what) in
  check "levels" levels e.X.levels;
  check "spill runs" runs e.X.spill_runs;
  check "spill bytes" bytes e.X.spill_bytes;
  check "overflow runs" generations e.X.spill_generations;
  check "merges" merges e.X.merges

let inc5_frontier_digest = "9376b76d57ee948b47ccfa88879f1416"

let test_spill_stream_pinned () =
  (* at 1 MiB no level of inc5/TSO overflows: the stream is the 21
     frontiers as written straight from the arena *)
  let digest, r = frontier_digest ~mem_budget_bytes:(1024 * 1024) ~states:inc5_tso_states "inc5" in
  Alcotest.(check string) "inc5/TSO at 1 MiB: frontier digest" inc5_frontier_digest digest;
  check_spill_stream "inc5/TSO at 1 MiB" ~levels:21 ~runs:27 ~bytes:875_712 ~generations:0
    ~merges:0 r.X.ext

let test_tiny_budget_overflows_and_merges () =
  (* a 64 KiB budget on inc5/TSO (64k states) overflows the arena into
     runs on the wider levels, which are merged at the level end — and
     stays exact *)
  let t = L.find "inc5" in
  let st = L.initial_state t and observe = t.L.observe in
  let rk = key t "TSO" false in
  let max_states = inc5_tso_states in
  with_dir (fun dir ->
      let ram = E.outcomes ~max_states Sem.Tso st ~observe in
      let ext =
        X.outcomes ~max_states ~mem_budget_bytes:tiny_budget ~spill_dir:dir ~resume_key:rk
          Sem.Tso st ~observe
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
      check_spill_stream "inc5/TSO at 64 KiB" ~levels:21 ~runs:602 ~bytes:2_269_552
        ~generations:82 ~merges:18 e;
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
        X.outcomes ~max_states ~mem_budget_bytes:tiny_budget ~resume:true ~spill_dir:dir
          ~resume_key:rk Sem.Tso st ~observe
      in
      Alcotest.(check int) "chained resumes complete" (List.fold_left ( + ) 0 widths)
        full.X.base.E.states_visited);
  (* the merged frontiers hold the same keys in the same order as the
     frontiers written straight from the arena at 1 MiB *)
  Alcotest.(check string) "inc5/TSO at 64 KiB: frontier digest" inc5_frontier_digest
    (fst (frontier_digest ~mem_budget_bytes:tiny_budget ~states:max_states "inc5"))

(* inc6/TSO (1.26M states) at 1 MiB: the wider levels overflow the arena
   into several runs, and the result must not change. The run goes level
   by level, resuming at each boundary, which leaves every counter as an
   uninterrupted run's (see the kill + resume tests). *)
let test_inc6_tso_1mib () =
  let t = L.find "inc6" in
  let st = L.initial_state t and observe = t.L.observe in
  let ram = E.outcomes ~max_states:inc6_tso_states Sem.Tso st ~observe in
  let digest, ext =
    frontier_digest ~mem_budget_bytes:(1024 * 1024) ~states:inc6_tso_states "inc6"
  in
  check_base (( ^ ) "inc6/TSO at 1 MiB: ") ram ext.X.base;
  Alcotest.(check string) "inc6/TSO at 1 MiB: frontier digest" "d2826e061b972f7611bf5f0d97b85dfd"
    digest;
  check_spill_stream "inc6/TSO at 1 MiB" ~levels:25 ~runs:795 ~bytes:47_978_964 ~generations:108
    ~merges:22
    ext.X.ext;
  Alcotest.(check bool)
    (Printf.sprintf ">= 2 overflow runs (got %d)" ext.X.ext.X.spill_generations)
    true
    (ext.X.ext.X.spill_generations >= 2)

(* "kill" a run mid-level with a work cap, resume it, and compare with an
   uninterrupted run: every base field and spill counter is identical *)
let check_kill_resume ?mem_budget_bytes ~cap name =
  let t = L.find name in
  let st = L.initial_state t in
  let observe = t.L.observe in
  let rk = key t "TSO" false and max_states = oracle Sem.Tso st in
  let run ?budget ?(resume = false) dir =
    X.outcomes ~max_states ?budget ?mem_budget_bytes ~resume ~spill_dir:dir ~resume_key:rk
      Sem.Tso st ~observe
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
      let full =
        X.outcomes ~max_states:175 ~resume:true ~spill_dir:dir ~resume_key:rk Sem.Sc st ~observe
      in
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
  let rk = key t "TSO" false and max_states = oracle Sem.Tso st in
  with_dir (fun dir ->
      let b = B.create ~max_work:100 () in
      ignore (X.outcomes ~max_states ~budget:b ~spill_dir:dir ~resume_key:rk Sem.Tso st ~observe);
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
          X.outcomes ~max_states ~resume:true ~spill_dir:dir ~resume_key:rk Sem.Tso st ~observe))

let test_resume_key_mismatch_rejected () =
  let t = L.find "sb" in
  let st = L.initial_state t in
  let observe = t.L.observe in
  with_dir (fun dir ->
      ignore
        (X.outcomes ~max_states:(oracle Sem.Tso st) ~spill_dir:dir ~resume_key:"sb|TSO" Sem.Tso
           st ~observe);
      expect_spill_error "resume key mismatch" (fun () ->
          X.outcomes ~max_states:(oracle Sem.Sc st) ~resume:true ~spill_dir:dir
            ~resume_key:"sb|SC" Sem.Sc st ~observe))

let test_resume_without_manifest_rejected () =
  with_dir (fun dir ->
      let t = L.find "sb" in
      let st = L.initial_state t in
      expect_spill_error "missing manifest" (fun () ->
          X.outcomes ~max_states:(oracle Sem.Tso st) ~resume:true ~spill_dir:dir
            ~resume_key:"sb|TSO" Sem.Tso st ~observe:t.L.observe))

let test_old_manifest_version_rejected () =
  (* a spill directory from an earlier layout: the visited-run layout's
     manifest is tagged "extmem/manifest", and the one from before the
     run entries carried sleep sets "extmem/manifest2" (its frontier runs
     hold bare keys). Resuming either must fail with a typed one-line
     error, never misparse it, even over an intact payload; the daemon
     then sweeps the directory *)
  let t = L.find "inc3" in
  let st = L.initial_state t in
  let rk = key t "TSO" false and max_states = oracle Sem.Tso st in
  List.iter
    (fun tag ->
      with_dir (fun dir ->
          ignore
            (X.outcomes ~max_states ~budget:(B.create ~max_work:40 ()) ~spill_dir:dir
               ~resume_key:rk Sem.Tso st ~observe:t.L.observe);
          let file = Filename.concat dir "MANIFEST" in
          (match Memrel_prob.Snapshot.read ~file ~tag:"extmem/manifest3" with
           | Error e -> Alcotest.fail (Memrel_prob.Snapshot.error_to_string e)
           | Ok payload -> (
             match Memrel_prob.Snapshot.write ~file ~tag payload with
             | Ok () -> ()
             | Error e -> Alcotest.fail (Memrel_prob.Snapshot.error_to_string e)));
          Alcotest.(check bool) (tag ^ " found") true (X.can_resume dir);
          expect_spill_error tag (fun () ->
              X.outcomes ~max_states ~resume:true ~spill_dir:dir ~resume_key:rk Sem.Tso st
                ~observe:t.L.observe)))
    [ "extmem/manifest"; "extmem/manifest2" ]

let test_fresh_run_clears_stale_spill_state () =
  (* without ~resume a directory is an output path, not state: stale runs
     from a different enumeration must not leak into the result *)
  let t = L.find "mp" in
  let st = L.initial_state t in
  let observe = t.L.observe in
  with_dir (fun dir ->
      ignore
        (X.outcomes ~max_states:(oracle Sem.Tso st) ~spill_dir:dir ~resume_key:"mp|TSO" Sem.Tso
           st ~observe);
      let max_states = oracle Sem.Sc st in
      let ram = E.outcomes ~max_states Sem.Sc st ~observe in
      let ext =
        X.outcomes ~max_states ~spill_dir:dir ~resume_key:"mp|SC" Sem.Sc st ~observe
      in
      Alcotest.(check (list (pair (list (pair string int)) int)))
        "fresh run over stale dir is exact" ram.E.outcomes ext.X.base.E.outcomes)

(* every frontier of a run at [mem_budget_bytes], level by level: a state
   cap at each level boundary stops the run with that level's frontier on
   disk, [f] reads its files in order, and a resume goes on. A boundary
   past the oracle's count of the whole space fails. *)
let iter_frontiers ~mem_budget_bytes ~por t d f =
  let st = L.initial_state t in
  let states = oracle d st in
  with_dir (fun dir ->
      let rec go resume boundary =
        if boundary > states then
          Alcotest.failf "%s: a level starts past %d states" t.L.name states;
        let r =
          X.outcomes ~max_states:boundary ~mem_budget_bytes ~por ~resume ~spill_dir:dir
            ~resume_key:"frontiers" d st ~observe:t.L.observe
        in
        if r.X.base.E.exhausted <> None then begin
          let files = spill_files dir in
          List.iter (f dir) files;
          go true (List.fold_left (fun n file -> n + run_keys dir file) boundary files)
        end
      in
      go false 0)

(* Every frontier key replayed in file order, as the engine's reader hands
   them out: each key is rebuilt in place in one buffer from the prefix it
   shares with the previous key, and decoded with that prefix reused
   ([State.decode ~shared]) by one decoder that lives across files and
   levels. The state, its depth and the successor keys spliced from it
   must equal those of a full decode, on runs at 64 KiB, where the wider
   levels overflow, merge and span several files. *)
let check_shared_decode label ~por t d =
  let root = L.initial_state t in
  let shared_dec = State.decoder ~buffered:(Sem.buffered d) root in
  let full_dec = State.decoder ~buffered:(Sem.buffered d) root in
  let p_shared = State.packer () and p_full = State.packer () in
  let buf = ref (Bytes.create 64) and keys = ref 0 and reused = ref 0 in
  let prev = ref root in
  iter_frontiers ~mem_budget_bytes:tiny_budget ~por t d (fun dir file ->
      List.iter
        (fun (plen, key, _) ->
          let len = String.length key in
          if len > Bytes.length !buf then begin
            let b = Bytes.create (2 * len) in
            Bytes.blit !buf 0 b 0 plen;
            buf := b
          end;
          Bytes.blit_string key plen !buf plen (len - plen);
          let st = State.decode ~shared:plen shared_dec !buf len in
          let full = State.decode full_dec (Bytes.of_string key) len in
          let ctx what = Printf.sprintf "%s key %d: %s" label !keys what in
          incr keys;
          if st.State.mem == !prev.State.mem then incr reused;
          prev := st;
          Alcotest.(check bool) (ctx "state") true (st = full);
          Alcotest.(check int) (ctx "decoded depth") (State.decoded_depth full_dec)
            (State.decoded_depth shared_dec);
          List.iter
            (fun l ->
              State.pack_successor shared_dec p_shared (Sem.step d st l);
              State.pack_successor full_dec p_full (Sem.step d full l);
              Alcotest.(check string) (ctx "spliced successor key")
                (State.packed_string p_full) (State.packed_string p_shared);
              Alcotest.(check (array int)) (ctx "spliced section ends")
                (State.packed_ends p_full) (State.packed_ends p_shared))
            (Sem.enabled d st))
        (run_deltas dir file));
  !keys, !reused

let test_shared_decode_replay () =
  let keys = ref 0 and reused = ref 0 in
  List.iter
    (fun t ->
      List.iter
        (fun (dname, d) ->
          List.iter
            (fun por ->
              let k, r =
                check_shared_decode (Printf.sprintf "%s/%s por=%b" t.L.name dname por) ~por t d
              in
              keys := !keys + k;
              reused := !reused + r)
            [ false; true ])
        disciplines)
    (L.all @ List.map L.find [ "inc3"; "inc4"; "inc5" ]);
  (* the replay must exercise the reuse: most keys share their memory
     section with the previous one *)
  Alcotest.(check bool)
    (Printf.sprintf "memory reused on %d of %d keys" !reused !keys)
    true
    (2 * !reused > !keys)

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
      ("inc6/TSO at 1 MiB overflows and stays exact", test_inc6_tso_1mib);
      ("inc5/TSO spill stream at 1 MiB is pinned", test_spill_stream_pinned);
      ("decoding with the shared prefix reused equals a full decode on every frontier key",
       test_shared_decode_replay);
    ]
