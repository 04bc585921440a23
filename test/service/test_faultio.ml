(* The fault plane itself: replayability, each fault's contract (absorbed,
   typed, CRC-detected, or crash debris), and the cache's repair path
   under injected faults. *)

module F = Memrel_prob.Faultio
module Snapshot = Memrel_prob.Snapshot
module Cache = Memrel_service.Cache
module P = Memrel_service.Protocol

let temp_dir () =
  let d = Filename.temp_file "memrel_fault" ".d" in
  Sys.remove d;
  Unix.mkdir d 0o755;
  d

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

(* a fixed operation sequence through the facade; what the replayability
   tests compare traces over *)
let run_sequence dir =
  for i = 1 to 20 do
    let path = Filename.concat dir (Printf.sprintf "f%d" i) in
    (try F.write_file ~path (String.make (100 * i) 'a') with F.Io _ -> ());
    (try ignore (F.read_file path) with F.Io _ -> ());
    if i mod 3 = 0 then
      try F.rename ~src:path ~dst:(path ^ ".moved") with F.Io _ -> ()
  done

let test_no_plan_is_plain_io () =
  with_dir @@ fun dir ->
  Alcotest.(check bool) "no plan installed" true (F.installed () = None);
  let path = Filename.concat dir "plain" in
  F.write_file ~path "hello";
  Alcotest.(check string) "write/read round-trip" "hello" (F.read_file path);
  F.rename ~src:path ~dst:(path ^ ".2");
  Alcotest.(check string) "rename moved the bytes" "hello" (F.read_file (path ^ ".2"));
  match F.read_file (Filename.concat dir "absent") with
  | _ -> Alcotest.fail "reading an absent file should raise Io"
  | exception F.Io _ -> ()

let test_same_seed_same_trace () =
  let trace_of seed =
    with_dir @@ fun dir ->
    let p = F.plan ~eintr:0.1 ~short:0.1 ~enospc:0.05 ~torn:0.05 ~seed () in
    F.with_plan p (fun () -> run_sequence dir);
    (* strip the temp-dir prefix so traces from different dirs compare *)
    List.map
      (fun (e : F.event) -> (e.op, e.site, Filename.basename e.path, e.fault))
      (F.trace p)
  in
  let t1 = trace_of 42 and t2 = trace_of 42 and t3 = trace_of 43 in
  Alcotest.(check bool) "seed 42 twice: identical traces" true (t1 = t2);
  Alcotest.(check bool) "some faults dealt" true (t1 <> []);
  Alcotest.(check bool) "different seed: different trace" true (t1 <> t3)

let test_transient_faults_absorbed () =
  with_dir @@ fun dir ->
  (* EINTR and short transfers on every class of operation: the retry
     loops must absorb them all without changing a single byte. Operation
     numbers count facade-level syscall attempts, so the write that gets
     EINTR on attempt 1 is dealt Short on its retry. *)
  let p =
    F.script
      [ (F.Write, 1, F.Eintr); (F.Write, 2, F.Short); (F.Read, 1, F.Short);
        (F.Read, 2, F.Eintr) ]
      ~seed:7
  in
  F.with_plan p (fun () ->
      let path = Filename.concat dir "t" in
      let payload = String.init 200_000 (fun i -> Char.chr (i land 0xff)) in
      F.write_file ~path payload;
      Alcotest.(check bool) "faulted write round-trips" true (F.read_file path = payload);
      F.write_file ~path:(Filename.concat dir "t2") "second";
      Alcotest.(check string) "second write fine" "second"
        (F.read_file (Filename.concat dir "t2")));
  let s = F.stats p in
  Alcotest.(check int) "eintr counted" 2 s.F.eintr;
  Alcotest.(check int) "short counted" 2 s.F.short;
  Alcotest.(check int) "no hard faults" 0 (s.F.enospc + s.F.torn + s.F.crashes)

let test_enospc_is_typed () =
  with_dir @@ fun dir ->
  let p = F.script [ (F.Write, 1, F.Enospc) ] ~seed:1 in
  F.with_plan p (fun () ->
      let path = Filename.concat dir "full" in
      match F.write_file ~path "doomed" with
      | () -> Alcotest.fail "write should fail with Io"
      | exception F.Io msg ->
        Alcotest.(check bool) "message names the failure" true
          (Astring.String.is_infix ~affix:"space" msg));
  (* and the snapshot layer turns it into its typed error, not an
     exception *)
  let p2 = F.script [ (F.Write, 1, F.Enospc) ] ~seed:1 in
  F.with_plan p2 (fun () ->
      match Snapshot.write ~file:(Filename.concat dir "s") ~tag:"t" "payload" with
      | Error (Snapshot.Io _) -> ()
      | Ok () -> Alcotest.fail "snapshot write should surface the Io error"
      | Error e -> Alcotest.failf "wrong error: %s" (Snapshot.error_to_string e))

let test_torn_rename_caught_by_crc () =
  with_dir @@ fun dir ->
  let file = Filename.concat dir "snap" in
  let p = F.script [ (F.Rename, 1, F.Torn) ] ~seed:5 in
  F.with_plan p (fun () ->
      match Snapshot.write ~file ~tag:"t" (String.make 5000 'z') with
      | Ok () -> ()
      | Error e -> Alcotest.failf "torn write should not error: %s" (Snapshot.error_to_string e));
  (* the destination exists but fails validation — never decoded *)
  Alcotest.(check bool) "destination exists" true (Sys.file_exists file);
  (match Snapshot.read ~file ~tag:"t" with
  | Error (Snapshot.Crc_mismatch | Snapshot.Truncated | Snapshot.Not_a_snapshot) -> ()
  | Ok _ -> Alcotest.fail "a torn snapshot must not read back"
  | Error e -> Alcotest.failf "unexpected error: %s" (Snapshot.error_to_string e));
  (* a clean rewrite heals it *)
  (match Snapshot.write ~file ~tag:"t" "healed" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Snapshot.error_to_string e));
  match Snapshot.read ~file ~tag:"t" with
  | Ok v -> Alcotest.(check string) "healed" "healed" v
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)

let test_crash_leaves_recoverable_debris () =
  with_dir @@ fun dir ->
  let file = Filename.concat dir "snap" in
  (match Snapshot.write ~file ~tag:"t" "generation-1" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Snapshot.error_to_string e));
  let p = F.script [ (F.Rename, 1, F.Crash) ] ~seed:3 in
  (match F.with_plan p (fun () -> Snapshot.write ~file ~tag:"t" "generation-2") with
  | _ -> Alcotest.fail "crash point should raise"
  | exception F.Crash_point _ -> ());
  (* the crash struck before the rename committed: the previous
     generation is intact — the tmp+rename contract *)
  (match Snapshot.read ~file ~tag:"t" with
  | Ok v -> Alcotest.(check string) "previous generation intact" "generation-1" v
  | Error e -> Alcotest.fail (Snapshot.error_to_string e));
  (* recovery: a post-restart write supersedes any debris *)
  (match Snapshot.write ~file ~tag:"t" "generation-2" with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Snapshot.error_to_string e));
  match Snapshot.read ~file ~tag:"t" with
  | Ok v -> Alcotest.(check string) "recovered" "generation-2" v
  | Error e -> Alcotest.fail (Snapshot.error_to_string e)

let test_pathological_eintr_bounded () =
  with_dir @@ fun dir ->
  (* an all-EINTR plan must end in a typed error, never a hang *)
  let p = F.plan ~eintr:1.0 ~seed:9 () in
  F.with_plan p (fun () ->
      match F.write_file ~path:(Filename.concat dir "x") "y" with
      | () -> Alcotest.fail "all-EINTR should exhaust the retry bound"
      | exception F.Io _ -> ())

let test_cache_repairs_torn_entry () =
  with_dir @@ fun dir ->
  let c = Cache.create ~shards:4 ~dir () in
  (* the store's commit rename is torn: memory serves fine, disk is bad *)
  let p = F.script [ (F.Rename, 1, F.Torn) ] ~seed:11 in
  F.with_plan p (fun () ->
      match Cache.find_or_compute c ~key:"k" ~compute:(fun () -> Ok ("v", true)) with
      | Ok ("v", Cache.Computed) -> ()
      | _ -> Alcotest.fail "compute under torn store");
  Cache.clear_memory c;
  (* no plan now: the probe finds the torn entry, counts it, recomputes,
     and repairs the file in place *)
  let computes = ref 0 in
  (match
     Cache.find_or_compute c ~key:"k"
       ~compute:(fun () -> incr computes; Ok ("v", true))
   with
  | Ok ("v", Cache.Computed) -> ()
  | _ -> Alcotest.fail "recompute over corrupt entry");
  Alcotest.(check int) "recomputed once" 1 !computes;
  let s = Cache.stats c in
  Alcotest.(check bool) "disk error counted" true (s.P.disk_errors >= 1);
  Alcotest.(check int) "repair counted" 1 s.P.repairs;
  (* the repair stuck: a fresh cache over the dir serves from disk *)
  Cache.clear_memory c;
  match Cache.find_or_compute c ~key:"k" ~compute:(fun () -> Alcotest.fail "recomputed") with
  | Ok ("v", Cache.Disk_hit) -> ()
  | _ -> Alcotest.fail "repaired entry should disk-hit"

let test_fault_rate_sweep_never_corrupts () =
  (* the in-process chaos sweep: for many seeds, hammer one cache with a
     lossy plan; every returned value must be exact, and after clearing
     the plan every surviving disk entry must either read back exactly or
     be recomputed — corruption is detected, never served *)
  with_dir @@ fun dir ->
  for seed = 1 to 20 do
    let subdir = Filename.concat dir (Printf.sprintf "s%d" seed) in
    let c = Cache.create ~shards:4 ~dir:subdir () in
    let value k = Printf.sprintf "value-%s-%d" k seed in
    let p = F.plan_rate ~seed 0.3 in
    F.with_plan p (fun () ->
        for i = 1 to 15 do
          let key = Printf.sprintf "k%d" (i mod 5) in
          match Cache.find_or_compute c ~key ~compute:(fun () -> Ok (value key, true)) with
          | Ok (v, _) ->
            if v <> value key then
              Alcotest.failf "seed %d: wrong value served under faults" seed
          | Error (_ : string) -> ()
        done);
    (* post-chaos: the daemon-restart read path serves only exact values *)
    Cache.clear_memory c;
    for i = 0 to 4 do
      let key = Printf.sprintf "k%d" i in
      match Cache.find_or_compute c ~key ~compute:(fun () -> Ok (value key, true)) with
      | Ok (v, _) ->
        if v <> value key then Alcotest.failf "seed %d: corrupt entry served" seed
      | Error (_ : string) -> Alcotest.failf "seed %d: unexpected error" seed
    done
  done

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("no plan: plain IO", test_no_plan_is_plain_io);
      ("same seed, same trace", test_same_seed_same_trace);
      ("EINTR/short absorbed by retries", test_transient_faults_absorbed);
      ("ENOSPC is a typed error", test_enospc_is_typed);
      ("torn rename caught by CRC", test_torn_rename_caught_by_crc);
      ("crash leaves recoverable debris", test_crash_leaves_recoverable_debris);
      ("pathological EINTR bounded", test_pathological_eintr_bounded);
      ("cache repairs a torn entry", test_cache_repairs_torn_entry);
      ("20-seed chaos sweep never corrupts", test_fault_rate_sweep_never_corrupts);
    ]
