module P = Memrel_service.Protocol
module Server = Memrel_service.Server
module Client = Memrel_service.Client
module Engine = Memrel_service.Engine
module Pool = Memrel_service.Pool
module Model = Memrel_memmodel.Model

let temp_path suffix =
  let p = Filename.temp_file "memrel_srv" suffix in
  Sys.remove p;
  p

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* a daemon on a fresh Unix socket, stopped (via Shutdown) and joined before
   returning — [keep_cache] reuses a directory across restarts *)
let with_server ?(workers = 2) ?caps ?cache_dir ?(max_queue = 64) ?(io_deadline_s = 30.) f =
  let socket = temp_path ".sock" in
  let cache_dir = match cache_dir with Some d -> d | None -> temp_path ".cache" in
  let address = P.Unix_path socket in
  let config =
    { (Server.default_config address cache_dir) with
      Server.workers;
      caps = Option.value caps ~default:Engine.no_caps;
      max_queue;
      io_deadline_s }
  in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () -> Server.run ~on_ready:(fun () -> Atomic.set ready true) config)
  in
  (* wait for the listener: a test that connects before the daemon is up
     would fail, and worse, leave the cleanup below unable to deliver the
     Shutdown — Domain.join would then hang forever *)
  let deadline = Unix.gettimeofday () +. 10. in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    ignore (Unix.select [] [] [] 0.01)
  done;
  if not (Atomic.get ready) then Alcotest.fail "server did not come up";
  Fun.protect
    ~finally:(fun () ->
      (* harmless if the test already shut it down: the socket is gone and
         this connect just fails after its retry window *)
      (match
         Client.with_connection ~retry_for:2. address (fun c -> Client.request c P.Shutdown)
       with
       | Ok _ | Error _ -> ());
      Domain.join server;
      rm_rf socket)
    (fun () -> f address cache_dir)

let request c r =
  match Client.request c r with Ok resp -> resp | Error m -> Alcotest.failf "request: %s" m

let connect address =
  match Client.connect ~retry_for:10. address with
  | Ok c -> c
  | Error m -> Alcotest.failf "connect: %s" m

let q_verify = P.Verify { test = "sb"; family = Model.Total_store_order; window = 8 }

let test_all_query_kinds () =
  let cache_dir = temp_path ".cache" in
  Fun.protect ~finally:(fun () -> rm_rf cache_dir) @@ fun () ->
  with_server ~cache_dir @@ fun address _ ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  (match request c (P.Query (q_verify, P.no_limits)) with
   | P.Result { result = { P.payload = P.Verdict { agrees = true; _ }; partial = None }; origin = P.Computed } -> ()
   | r -> Alcotest.failf "verify: %s" (P.render_response r));
  (match
     request c
       (P.Query
          ( P.Enumerate { test = "inc"; family = Model.Sequential_consistency; window = 8; por = true },
            P.no_limits ))
   with
   | P.Result { result = { P.payload = P.Outcomes { entries; _ }; _ }; _ } ->
     Alcotest.(check int) "inc outcomes" 2 (List.length entries)
   | r -> Alcotest.failf "enumerate: %s" (P.render_response r));
  (match
     request c
       (P.Query (P.Axiom { test = "mp"; family = Model.Weak_ordering; window = 8 }, P.no_limits))
   with
   | P.Result { result = { P.payload = P.Axiom_outcomes { entries; _ }; _ }; _ } ->
     Alcotest.(check bool) "mp axiom outcomes nonempty" true (entries <> [])
   | r -> Alcotest.failf "axiom: %s" (P.render_response r));
  (match
     request c
       (P.Query
          ( P.Estimate
              { kind = P.Shift { gammas = [| 2; 2 |] }; family = Model.Sequential_consistency;
                seed = 1; trials = 2000; target_width = None },
            P.no_limits ))
   with
   | P.Result { result = { P.payload = P.Estimated { trials = 2000; _ }; _ }; _ } -> ()
   | r -> Alcotest.failf "estimate: %s" (P.render_response r));
  (* ping *)
  (match request c P.Ping with
   | P.Pong -> ()
   | r -> Alcotest.failf "ping: %s" (P.render_response r))

let test_cache_origins_and_restart () =
  let cache_dir = temp_path ".cache" in
  Fun.protect ~finally:(fun () -> rm_rf cache_dir) @@ fun () ->
  let origin_of = function
    | P.Result { origin; _ } -> P.origin_to_string origin
    | r -> Alcotest.failf "expected a result: %s" (P.render_response r)
  in
  with_server ~cache_dir (fun address _ ->
      let c = connect address in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Alcotest.(check string) "first is computed" "computed"
        (origin_of (request c (P.Query (q_verify, P.no_limits))));
      Alcotest.(check string) "second is a memory hit" "memory"
        (origin_of (request c (P.Query (q_verify, P.no_limits)))));
  (* a new daemon over the same cache dir serves from disk *)
  with_server ~cache_dir (fun address _ ->
      let c = connect address in
      Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
      Alcotest.(check string) "after restart: disk hit" "disk"
        (origin_of (request c (P.Query (q_verify, P.no_limits))));
      Alcotest.(check string) "then memory" "memory"
        (origin_of (request c (P.Query (q_verify, P.no_limits)))))

let test_batch_dedup_and_order () =
  with_server @@ fun address _ ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let q2 = P.Enumerate { test = "inc"; family = Model.Sequential_consistency; window = 8; por = false } in
  let misses () =
    match request c P.Stats with
    | P.Stats_reply s -> s.P.cache.P.misses
    | r -> Alcotest.failf "stats: %s" (P.render_response r)
  in
  let before = misses () in
  (match
     request c
       (P.Batch
          [ (q_verify, P.no_limits); (q_verify, P.no_limits); (q2, P.no_limits);
            (q_verify, P.no_limits) ])
   with
   | P.Results [ a; b; c'; d ] ->
     (* order preserved: three verdicts and one outcome listing *)
     let is_verdict = function
       | P.Result { result = { P.payload = P.Verdict _; _ }; _ } -> true
       | _ -> false
     in
     Alcotest.(check bool) "slot 0 verdict" true (is_verdict a);
     Alcotest.(check bool) "slot 1 verdict" true (is_verdict b);
     Alcotest.(check bool) "slot 3 verdict" true (is_verdict d);
     (match c' with
      | P.Result { result = { P.payload = P.Outcomes _; _ }; _ } -> ()
      | _ -> Alcotest.fail "slot 2 should be the enumeration");
     (* identical sub-queries answered identically *)
     Alcotest.(check bool) "duplicates identical" true (a = b && b = d)
   | r -> Alcotest.failf "batch: %s" (P.render_response r));
  (* 4 sub-queries, but only 2 distinct computes *)
  Alcotest.(check int) "deduplicated misses" (before + 2) (misses ())

let test_batch_mixed_errors () =
  with_server @@ fun address _ ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let bad = P.Verify { test = "nosuch"; family = Model.Total_store_order; window = 8 } in
  match request c (P.Batch [ (q_verify, P.no_limits); (bad, P.no_limits) ]) with
  | P.Results [ P.Result _; P.Error { code = P.Unknown_test; _ } ] -> ()
  | r -> Alcotest.failf "mixed batch: %s" (P.render_response r)

let test_budget_partial_over_the_wire () =
  with_server @@ fun address _ ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let limits = { P.deadline_s = Some 0.; max_work = None; max_mem_mb = None } in
  match
    request c
      (P.Query
         ( P.Enumerate { test = "inc5"; family = Model.Sequential_consistency; window = 8; por = false },
           limits ))
  with
  | P.Result { result = { P.partial = Some p; _ }; _ } ->
    Alcotest.(check string) "cause" "deadline" p.P.cause
  | r -> Alcotest.failf "expected partial: %s" (P.render_response r)

let test_server_caps_apply () =
  let caps = { Engine.no_caps with Engine.max_deadline_s = Some 0. } in
  with_server ~caps @@ fun address _ ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match
    request c
      (P.Query
         ( P.Enumerate { test = "inc5"; family = Model.Sequential_consistency; window = 8; por = false },
           P.no_limits ))
  with
  | P.Result { result = { P.partial = Some _; _ }; _ } -> ()
  | r -> Alcotest.failf "cap should partial a heavy query: %s" (P.render_response r)

let test_malformed_frame_answered () =
  with_server @@ fun address _ ->
  match address with
  | P.Tcp _ -> Alcotest.fail "unix socket expected"
  | P.Unix_path path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX path);
    (* a valid frame whose payload is not a request *)
    P.write_frame fd "\xde\xad\xbe\xef";
    (match P.read_frame fd with
     | Ok (Some payload) -> begin
       match P.decode_response payload with
       | Ok (P.Error { code = P.Bad_request; _ }) -> ()
       | Ok r -> Alcotest.failf "expected bad-request: %s" (P.render_response r)
       | Error m -> Alcotest.fail m
     end
     | Ok None -> Alcotest.fail "connection closed without an answer"
     | Error m -> Alcotest.fail m)

let test_stats_and_shutdown () =
  with_server @@ fun address _ ->
  let c = connect address in
  ignore (request c (P.Query (q_verify, P.no_limits)));
  (match request c P.Stats with
   | P.Stats_reply s ->
     Alcotest.(check bool) "requests counted" true (s.P.requests >= 1);
     Alcotest.(check int) "workers reported" 2 s.P.workers;
     Alcotest.(check bool) "an entry cached" true (s.P.cache.P.entries >= 1)
   | r -> Alcotest.failf "stats: %s" (P.render_response r));
  (match request c P.Shutdown with
   | P.Bye -> ()
   | r -> Alcotest.failf "shutdown: %s" (P.render_response r));
  Client.close c;
  (* the daemon is down: fresh connections fail once the socket is gone *)
  let deadline = Unix.gettimeofday () +. 10. in
  let rec wait_down () =
    match Client.with_connection address (fun c -> Client.request c P.Ping) with
    | Error _ -> ()
    | Ok _ ->
      if Unix.gettimeofday () > deadline then Alcotest.fail "daemon still answering"
      else begin
        ignore (Unix.select [] [] [] 0.05);
        wait_down ()
      end
  in
  wait_down ()

(* -- pool --------------------------------------------------------------- *)

let test_pool_drains_and_joins () =
  let processed = Atomic.make 0 in
  let pool =
    Pool.create ~workers:3 ~handler:(fun n -> Atomic.set processed (Atomic.get processed + n)) ()
  in
  ignore pool;
  let pool2 = Pool.create ~max_queue:64 ~workers:2 ~handler:(fun _ -> Atomic.incr processed) () in
  for _ = 1 to 50 do
    match Pool.submit pool2 () with
    | Pool.Accepted -> ()
    | Pool.Overloaded | Pool.Stopping -> Alcotest.fail "submit not accepted"
  done;
  Pool.shutdown pool2;
  Alcotest.(check int) "all jobs ran before join" 50 (Atomic.get processed);
  Alcotest.(check bool) "rejected after shutdown" true (Pool.submit pool2 () = Pool.Stopping);
  Pool.shutdown pool

let test_pool_survives_handler_exceptions () =
  let survived = Atomic.make 0 in
  let pool =
    Pool.create ~workers:1
      ~handler:(fun n -> if n = 0 then failwith "boom" else Atomic.incr survived)
      ()
  in
  ignore (Pool.submit pool 0);
  ignore (Pool.submit pool 1);
  ignore (Pool.submit pool 0);
  ignore (Pool.submit pool 2);
  Pool.shutdown pool;
  Alcotest.(check int) "worker survived the failures" 2 (Atomic.get survived);
  (* the satellite regression: the escapes are counted, not swallowed *)
  let s = Pool.stats pool in
  Alcotest.(check int) "handler exceptions counted" 2 s.Pool.handler_exceptions;
  Alcotest.(check int) "no respawn for a caught exception" 0 s.Pool.respawns

(* -- robustness: refusal, reaping, overload, chaos ----------------------- *)

let test_refuses_live_socket () =
  with_server @@ fun address cache_dir ->
  (* the daemon is up: a second daemon on the same Unix socket must refuse
     with a typed one-line error instead of stealing the path *)
  Alcotest.(check bool) "probe sees the live daemon" true
    (match address with P.Unix_path p -> Server.unix_socket_live p | P.Tcp _ -> false);
  let config = { (Server.default_config address cache_dir) with Server.workers = 1 } in
  (match Server.run config with
  | () -> Alcotest.fail "second daemon should refuse to start"
  | exception Failure msg ->
    Alcotest.(check bool) "error names the conflict" true
      (Astring.String.is_infix ~affix:"already serving" msg));
  (* and the first daemon is unharmed *)
  let c = connect address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match request c P.Ping with
  | P.Pong -> ()
  | r -> Alcotest.failf "first daemon hurt by the refusal: %s" (P.render_response r)

let test_slow_client_reaped () =
  with_server ~workers:2 ~io_deadline_s:1.0 @@ fun address _ ->
  match address with
  | P.Tcp _ -> Alcotest.fail "unix socket expected"
  | P.Unix_path path ->
    let slow = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close slow with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect slow (Unix.ADDR_UNIX path);
    (* half a frame header, then stall: without the per-frame deadline this
       would pin one of the two workers forever *)
    ignore (Unix.write_substring slow "MRF1\x00\x00" 0 6);
    (* the other worker keeps serving throughout *)
    let c = connect address in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    (match request c P.Ping with
    | P.Pong -> ()
    | r -> Alcotest.failf "ping while stalled: %s" (P.render_response r));
    (* the stalled connection is reaped at the deadline: its socket EOFs *)
    let deadline = Unix.gettimeofday () +. 15. in
    let buf = Bytes.create 64 in
    let rec wait_reaped () =
      if Unix.gettimeofday () > deadline then Alcotest.fail "stalled client never reaped"
      else
        match Unix.select [ slow ] [] [] 0.2 with
        | [ _ ], _, _ -> if Unix.read slow buf 0 64 > 0 then wait_reaped ()
        | _ -> wait_reaped ()
    in
    wait_reaped ();
    (* the worker it held is back: requests still answer, and the reap is
       counted *)
    (match request c P.Ping with
    | P.Pong -> ()
    | r -> Alcotest.failf "ping after reap: %s" (P.render_response r));
    match request c P.Stats with
    | P.Stats_reply s -> Alcotest.(check bool) "reap counted" true (s.P.reaped >= 1)
    | r -> Alcotest.failf "stats: %s" (P.render_response r)

let test_overload_shed_and_retry () =
  with_server ~workers:1 ~max_queue:1 @@ fun address _ ->
  (* one worker, queue of one: c1 pins the worker, c2 fills the queue *)
  let c1 = connect address in
  (match request c1 P.Ping with
  | P.Pong -> ()
  | r -> Alcotest.failf "ping: %s" (P.render_response r));
  let c2 = connect address in
  ignore (Unix.select [] [] [] 0.3);
  (* the next connection is shed with the typed retry-after response *)
  let c3 = connect address in
  (match Client.request c3 P.Ping with
  | Ok (P.Overloaded { retry_after_s }) ->
    Alcotest.(check bool) "positive retry-after" true (retry_after_s > 0.)
  | Ok r -> Alcotest.failf "expected overloaded: %s" (P.render_response r)
  | Error m -> Alcotest.failf "shed connection: %s" m);
  Client.close c3;
  (* a retrying client parked behind the overload lands once capacity
     frees, and reports how it got there *)
  let retry =
    Domain.spawn (fun () ->
        Client.request_retry ~max_attempts:60 ~base_delay_s:0.05 ~deadline_s:20. address
          P.Ping)
  in
  ignore (Unix.select [] [] [] 0.5);
  Client.close c1;
  Client.close c2;
  (match Domain.join retry with
  | Ok (P.Pong, rs) ->
    Alcotest.(check bool) "took more than one attempt" true (rs.Client.attempts > 1);
    Alcotest.(check bool) "overloaded retries recorded" true (rs.Client.overloaded_retries >= 1)
  | Ok (r, _) -> Alcotest.failf "expected pong: %s" (P.render_response r)
  | Error m -> Alcotest.failf "retry never landed: %s" m);
  (* counters reconcile: the daemon shed at least the two sheds we observed *)
  let c = connect address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  match request c P.Stats with
  | P.Stats_reply s -> Alcotest.(check bool) "shed counted" true (s.P.shed >= 2)
  | r -> Alcotest.failf "stats: %s" (P.render_response r)

(* the in-process chaos drill: the same query trace against a clean oracle
   server and against fault-injected servers (several seeds) must produce
   byte-identical result payloads — faults may change origins (a failed
   store forces a recompute) but never a single result byte *)
let test_chaos_responses_byte_identical () =
  let module F = Memrel_prob.Faultio in
  let trace_queries =
    [
      q_verify;
      P.Enumerate { test = "inc"; family = Model.Sequential_consistency; window = 8; por = true };
      P.Axiom { test = "mp"; family = Model.Weak_ordering; window = 8 };
      q_verify (* a cache-hit path *);
    ]
  in
  let result_bytes address =
    List.map
      (fun q ->
        let c = connect address in
        Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
        match request c (P.Query (q, P.no_limits)) with
        | P.Result { result; _ } -> P.encode_result result
        | r -> Alcotest.failf "chaos query: %s" (P.render_response r))
      trace_queries
  in
  let oracle = with_server (fun address _ -> result_bytes address) in
  for seed = 1 to 5 do
    let chaotic =
      with_server (fun address _ ->
          let p = F.plan_rate ~seed 0.3 in
          F.with_plan p (fun () -> result_bytes address))
    in
    if chaotic <> oracle then
      Alcotest.failf "seed %d: a faulted server answered different bytes" seed
  done

(* a mixed trace over every query kind, ending in an enumeration *)
let mixed_trace =
  List.map
    (fun s -> match P.parse_query s with Ok q -> q | Error m -> Alcotest.failf "%s: %s" s m)
    [ "verify sb tso"; "verify mp wo"; "enumerate lb pso"; "axiom sb tso engine=solver";
      "estimate settling tso gamma=2 trials=20000"; "estimate shift gammas=3,2,5 trials=20000";
      "enumerate inc4 sc" ]

let answer c q =
  match request c (P.Query (q, P.no_limits)) with
  | P.Result { result; origin } -> (P.encode_result result, origin)
  | r -> Alcotest.failf "%s: %s" (P.query_to_string q) (P.render_response r)

let trace_answers ~cache_dir =
  with_server ~cache_dir @@ fun address _ ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () -> List.map (answer c) mixed_trace

(* cold, warm and restarted-daemon (disk) answers to the trace are the
   same bytes; the cold pass computes every one *)
let test_mixed_trace_tiers_identical () =
  let cache_dir = temp_path ".cache" in
  Fun.protect ~finally:(fun () -> rm_rf cache_dir) @@ fun () ->
  let cold, warm =
    with_server ~cache_dir @@ fun address _ ->
    let c = connect address in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    let cold = List.map (answer c) mixed_trace in
    (cold, List.map (answer c) mixed_trace)
  in
  let disk = trace_answers ~cache_dir in
  let origins = List.map (fun (_, o) -> P.origin_to_string o) in
  let bytes = List.map fst in
  Alcotest.(check (list string)) "cold: all computed" (List.map (fun _ -> "computed") cold)
    (origins cold);
  Alcotest.(check (list string)) "warm: all memory hits" (List.map (fun _ -> "memory") warm)
    (origins warm);
  Alcotest.(check (list string)) "restart: all disk hits" (List.map (fun _ -> "disk") disk)
    (origins disk);
  Alcotest.(check bool) "warm bytes = cold bytes" true (bytes warm = bytes cold);
  Alcotest.(check bool) "disk bytes = cold bytes" true (bytes disk = bytes cold)

(* what the cache buys: a memory hit answers an inc5 enumeration at least
   100x faster than computing it (the fastest of five hits, so a stalled
   sample cannot fake a miss) *)
let test_warm_hit_100x_faster_than_cold () =
  let cache_dir = temp_path ".cache" in
  Fun.protect ~finally:(fun () -> rm_rf cache_dir) @@ fun () ->
  with_server ~cache_dir @@ fun address _ ->
  let c = connect address in
  Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
  let q = P.Enumerate { test = "inc5"; family = Model.Sequential_consistency; window = 8; por = false } in
  let timed () =
    let t0 = Unix.gettimeofday () in
    let _, origin = answer c q in
    (Unix.gettimeofday () -. t0, P.origin_to_string origin)
  in
  let cold, origin = timed () in
  Alcotest.(check string) "first answer computed" "computed" origin;
  let warm =
    List.fold_left min infinity
      (List.init 5 (fun _ ->
           let s, origin = timed () in
           Alcotest.(check string) "then memory hits" "memory" origin;
           s))
  in
  Alcotest.(check bool)
    (Printf.sprintf "cold %.4fs / warm %.6fs = %.0fx >= 100x" cold warm (cold /. warm))
    true
    (cold >= 100. *. warm)

(* the trace against daemons under seeded fault plans: typed errors are
   retried, and every answer is the clean cold run's bytes. A clean daemon
   then serves the last chaos-battered cache directory byte-identically:
   a corrupt entry is recomputed, never served *)
let test_mixed_trace_chaos_then_clean_restart () =
  let module F = Memrel_prob.Faultio in
  let clean_dir = temp_path ".cache" and cache_dir = temp_path ".cache" in
  Fun.protect ~finally:(fun () -> rm_rf clean_dir; rm_rf cache_dir) @@ fun () ->
  let clean = List.map fst (trace_answers ~cache_dir:clean_dir) in
  for seed = 1 to 3 do
    rm_rf cache_dir;
    with_server ~cache_dir @@ fun address _ ->
    F.with_plan (F.plan_rate ~seed 0.2) @@ fun () ->
    let c = connect address in
    Fun.protect ~finally:(fun () -> Client.close c) @@ fun () ->
    List.iter2
      (fun q expected ->
        let rec go n =
          match Client.query c q with
          | Ok (P.Result { result; _ }) ->
            if P.encode_result result <> expected then
              Alcotest.failf "seed %d: %s answered different bytes" seed (P.query_to_string q)
          | (Ok _ | Error _) when n < 25 -> go (n + 1)
          | Ok r -> Alcotest.failf "seed %d: %s" seed (P.render_response r)
          | Error m -> Alcotest.failf "seed %d: %s" seed m
        in
        go 0)
      mixed_trace clean
  done;
  Alcotest.(check bool) "clean restart over the battered cache = clean bytes" true
    (List.map fst (trace_answers ~cache_dir) = clean)

(* -- the connection reader: frames split and joined across reads --------- *)

(* a raw socket to the daemon, for byte streams Client never sends *)
let with_raw_socket address f =
  match address with
  | P.Tcp _ -> Alcotest.fail "unix socket expected"
  | P.Unix_path path ->
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    @@ fun () ->
    Unix.connect fd (Unix.ADDR_UNIX path);
    (* a daemon that never answers fails the test instead of hanging it *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
    f fd

let frame payload =
  let b = Buffer.create (8 + String.length payload) in
  Buffer.add_string b "MRF1";
  Buffer.add_int32_be b (Int32.of_int (String.length payload));
  Buffer.add_string b payload;
  Buffer.contents b

let send fd s = ignore (Unix.write_substring fd s 0 (String.length s))

let reply fd =
  match P.read_frame fd with
  | Ok (Some payload) -> payload
  | Ok None -> Alcotest.fail "connection closed without an answer"
  | Error m -> Alcotest.fail m

let decoded fd =
  match P.decode_response (reply fd) with Ok r -> r | Error m -> Alcotest.fail m

let query_frame q = frame (P.encode_request (P.Query (q, P.no_limits)))

let test_two_frames_one_write () =
  with_server @@ fun address _ ->
  with_raw_socket address @@ fun fd ->
  send fd (frame (P.encode_request P.Ping) ^ query_frame q_verify);
  (match decoded fd with P.Pong -> () | r -> Alcotest.failf "first: %s" (P.render_response r));
  match decoded fd with
  | P.Result { result = { P.payload = P.Verdict { agrees = true; _ }; _ }; _ } -> ()
  | r -> Alcotest.failf "second: %s" (P.render_response r)

let test_frame_byte_by_byte () =
  with_server @@ fun address _ ->
  let request = query_frame q_verify in
  (* warm the cache, then take the memory hit's reply as the reference *)
  let whole =
    with_raw_socket address @@ fun fd ->
    send fd request;
    ignore (reply fd);
    send fd request;
    reply fd
  in
  with_raw_socket address @@ fun fd ->
  String.iter
    (fun ch ->
      send fd (String.make 1 ch);
      ignore (Unix.select [] [] [] 0.002))
    request;
  Alcotest.(check string) "same reply as the whole frame" whole (reply fd)

let test_batch_larger_than_buffer () =
  with_server @@ fun address _ ->
  let items =
    List.init 1000 (fun i ->
        ( P.Verify
            { test = List.nth [ "sb"; "mp"; "lb"; "inc" ] (i mod 4);
              family = List.nth [ Model.Sequential_consistency; Model.Total_store_order ] (i / 4 mod 2);
              window = 8 + (i mod 3) },
          P.no_limits ))
  in
  let request = frame (P.encode_request (P.Batch items)) in
  Alcotest.(check bool) "frame larger than the 4 KiB reader" true (String.length request > 8192);
  (* once warm, every item is a memory hit spliced from the cache: the
     reply is exactly the direct answers' bytes *)
  let expected =
    P.encode_items_response
      (List.map
         (fun (q, limits) ->
           match Engine.run ~caps:Engine.no_caps q limits with
           | Ok r -> P.encode_result_item ~origin:P.Memory_hit (P.encode_result r)
           | Error e -> Alcotest.fail e.Engine.message)
         items)
  in
  with_raw_socket address @@ fun fd ->
  send fd request;
  ignore (reply fd);
  send fd (request ^ request);
  Alcotest.(check string) "first warm reply" expected (reply fd);
  Alcotest.(check string) "pipelined warm reply" expected (reply fd)

let test_malformed_after_good () =
  with_server @@ fun address _ ->
  with_raw_socket address @@ fun fd ->
  send fd (frame (P.encode_request P.Ping) ^ "XRF1\000\000\000\001z");
  (match decoded fd with P.Pong -> () | r -> Alcotest.failf "first: %s" (P.render_response r));
  (match decoded fd with
   | P.Error { code = P.Bad_request; _ } -> ()
   | r -> Alcotest.failf "expected bad-request: %s" (P.render_response r));
  match P.read_frame fd with
  | Ok None -> ()
  | Ok (Some _) | Error _ -> Alcotest.fail "connection should close after a malformed frame"

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("all query kinds over the wire", test_all_query_kinds);
      ("origins: computed, memory, disk across restart", test_cache_origins_and_restart);
      ("batch dedups and preserves order", test_batch_dedup_and_order);
      ("batch mixes results and errors", test_batch_mixed_errors);
      ("budget partial over the wire", test_budget_partial_over_the_wire);
      ("server caps apply to limitless requests", test_server_caps_apply);
      ("malformed frame answered with bad-request", test_malformed_frame_answered);
      ("stats and clean shutdown", test_stats_and_shutdown);
      ("pool drains before join", test_pool_drains_and_joins);
      ("pool survives handler exceptions", test_pool_survives_handler_exceptions);
      ("refuses a live socket", test_refuses_live_socket);
      ("slow client reaped, others served", test_slow_client_reaped);
      ("overload shed + retry reconciliation", test_overload_shed_and_retry);
      ("chaos seeds: byte-identical results", test_chaos_responses_byte_identical);
      ("mixed trace: cold = warm = disk bytes", test_mixed_trace_tiers_identical);
      ("warm hit >= 100x faster than a cold inc5 enumeration", test_warm_hit_100x_faster_than_cold);
      ("mixed trace under chaos, then a clean restart", test_mixed_trace_chaos_then_clean_restart);
      ("reader: two frames in one write answered in order", test_two_frames_one_write);
      ("reader: a frame sent byte by byte", test_frame_byte_by_byte);
      ("reader: a batch larger than its buffer, byte-identical", test_batch_larger_than_buffer);
      ("reader: a malformed frame after a good one", test_malformed_after_good);
    ]
