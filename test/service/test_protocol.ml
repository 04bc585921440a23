module P = Memrel_service.Protocol
module Model = Memrel_memmodel.Model

let sample_queries =
  [
    P.Verify { test = "sb"; family = Model.Total_store_order; window = 8 };
    P.Enumerate { test = "inc"; family = Model.Sequential_consistency; window = 4; por = true };
    P.Enumerate { test = "mp"; family = Model.Weak_ordering; window = 12; por = false };
    P.Axiom { test = "lb"; family = Model.Partial_store_order; window = 8 };
    P.Axiom { test = "iriw"; family = Model.Weak_ordering; window = 6 };
    P.Estimate
      {
        kind = P.Settling { gamma = 2; p = 0.25; m = 64 };
        family = Model.Total_store_order;
        seed = 42;
        trials = 10_000;
        target_width = None;
      };
    P.Estimate
      {
        kind = P.Shift { gammas = [| 3; 2; 5 |] };
        family = Model.Sequential_consistency;
        seed = 1;
        trials = 100_000;
        target_width = Some 0.01;
      };
    P.Estimate
      {
        kind = P.Joint { n = 3 };
        family = Model.Weak_ordering;
        seed = 7;
        trials = 50_000;
        target_width = None;
      };
  ]

let sample_limits =
  [ P.no_limits; { P.deadline_s = Some 1.5; max_work = Some 1000; max_mem_mb = Some 256 } ]

let sample_results =
  [
    {
      P.payload =
        P.Verdict
          { observed_relaxed = true; expected_relaxed = true; agrees = true; outcomes = 4;
            terminals = 7 };
      partial = None;
    };
    {
      P.payload =
        P.Outcomes
          {
            entries = [ ([ ("0:r0", 0); ("1:r1", 1) ], 3); ([ ("x", 2) ], 1); ([], 5) ];
            terminals = 9;
            states = 123;
          };
      partial = Some { P.cause = "deadline"; work_done = 17; elapsed_s = 0.25 };
    };
    {
      P.payload = P.Axiom_outcomes { entries = [ ([ ("x", 1) ], 2) ]; accepted = 2 };
      partial = None;
    };
    {
      P.payload =
        P.Estimated { point = 0.118; lo = 0.11; hi = 0.127; trials = 10_000; target_met = true };
      partial = None;
    };
  ]

let sample_responses =
  List.map (fun result -> P.Result { result; origin = P.Computed }) sample_results
  @ [
      P.Results
        (List.map (fun result -> P.Result { result; origin = P.Disk_hit }) sample_results
        @ [ P.Error { code = P.Unknown_test; message = "no such test" } ]);
      P.Error { code = P.Bad_request; message = "bad" };
      P.Overloaded { retry_after_s = 0.25 };
      P.Stats_reply
        {
          cache =
            { entries = 3; memory_hits = 2; disk_hits = 1; misses = 4; stores = 3;
              disk_errors = 2; repairs = 1 };
          requests = 11;
          uptime_s = 2.5;
          workers = 2;
          shed = 5;
          handler_exceptions = 1;
          respawns = 1;
          reaped = 3;
        };
      P.Pong;
      P.Bye;
    ]

let test_request_round_trip () =
  let requests =
    List.concat_map (fun q -> List.map (fun l -> P.Query (q, l)) sample_limits) sample_queries
    @ [
        P.Batch (List.map (fun q -> (q, P.no_limits)) sample_queries);
        P.Batch [];
        P.Stats;
        P.Ping;
        P.Shutdown;
      ]
  in
  List.iter
    (fun r ->
      match P.decode_request (P.encode_request r) with
      | Ok r' -> Alcotest.(check bool) "request round-trips" true (r = r')
      | Error m -> Alcotest.failf "decode failed: %s" m)
    requests

let test_result_round_trip () =
  List.iter
    (fun r ->
      match P.decode_result (P.encode_result r) with
      | Ok r' -> Alcotest.(check bool) "result round-trips" true (r = r')
      | Error m -> Alcotest.failf "decode failed: %s" m)
    sample_results

let test_response_round_trip () =
  List.iter
    (fun r ->
      match P.decode_response (P.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "response round-trips" true (r = r')
      | Error m -> Alcotest.failf "decode failed: %s" m)
    sample_responses

let test_result_response_splice () =
  (* the fast path must agree byte-for-byte with the re-encoding path *)
  List.iter
    (fun result ->
      List.iter
        (fun origin ->
          Alcotest.(check string) "splice = encode"
            (P.encode_response (P.Result { result; origin }))
            (P.encode_result_response ~origin (P.encode_result result)))
        [ P.Computed; P.Memory_hit; P.Disk_hit ])
    sample_results

let test_items_response_splice () =
  let results = sample_results in
  let expected =
    P.encode_response
      (P.Results
         (List.map (fun result -> P.Result { result; origin = P.Memory_hit }) results
         @ [ P.Error { code = P.Server_error; message = "boom" } ]))
  in
  let spliced =
    P.encode_items_response
      (List.map
         (fun r -> P.encode_result_item ~origin:P.Memory_hit (P.encode_result r))
         results
      @ [ P.encode_response_item (P.Error { code = P.Server_error; message = "boom" }) ])
  in
  Alcotest.(check string) "batch splice = encode" expected spliced

let test_decode_rejects_garbage () =
  let is_error = function Error _ -> true | Ok _ -> false in
  Alcotest.(check bool) "empty" true (is_error (P.decode_request ""));
  Alcotest.(check bool) "bad version" true (is_error (P.decode_request "\xff\x00"));
  let v = String.make 1 (Char.chr P.version) in
  Alcotest.(check bool) "bad tag" true (is_error (P.decode_request (v ^ "\xee")));
  Alcotest.(check bool) "truncated" true
    (is_error
       (let full = P.encode_request (P.Query (List.hd sample_queries, P.no_limits)) in
        P.decode_request (String.sub full 0 (String.length full - 3))));
  Alcotest.(check bool) "trailing bytes" true
    (is_error (P.decode_request (P.encode_request P.Ping ^ "x")));
  Alcotest.(check bool) "response garbage" true (is_error (P.decode_response (v ^ "\x63")));
  (* version 2 dropped the Axiom engine byte: a version-1 frame is refused
     by the version check instead of being misread *)
  let axiom = P.Axiom { test = "sb"; family = Model.Total_store_order; window = 8 } in
  let v2 = P.encode_request (P.Query (axiom, P.no_limits)) in
  match P.decode_request ("\x01" ^ String.sub v2 1 (String.length v2 - 1)) with
  | Error m ->
    Alcotest.(check bool) m true (Astring.String.is_infix ~affix:"protocol version 1" m)
  | Ok _ -> Alcotest.fail "version-1 request accepted"

let test_parse_query_round_trip () =
  List.iter
    (fun q ->
      match P.parse_query (P.query_to_string q) with
      | Ok q' -> Alcotest.(check bool) (P.query_to_string q ^ " reparses") true (q = q')
      | Error m -> Alcotest.failf "%s: %s" (P.query_to_string q) m)
    sample_queries

let test_parse_query_defaults () =
  (match P.parse_query "verify sb tso" with
   | Ok (P.Verify { test = "sb"; family = Model.Total_store_order; window = 8 }) -> ()
   | Ok q -> Alcotest.failf "unexpected parse: %s" (P.query_to_string q)
   | Error m -> Alcotest.fail m);
  (match P.parse_query "enumerate inc4 sc por window=6" with
   | Ok (P.Enumerate { test = "inc4"; window = 6; por = true; _ }) -> ()
   | Ok q -> Alcotest.failf "unexpected parse: %s" (P.query_to_string q)
   | Error m -> Alcotest.fail m);
  (match P.parse_query "axiom mp wo" with
   | Ok (P.Axiom { test = "mp"; family = Model.Weak_ordering; window = 8 }) -> ()
   | Ok q -> Alcotest.failf "unexpected parse: %s" (P.query_to_string q)
   | Error m -> Alcotest.fail m);
  (* the solver is the only engine: naming it changes nothing *)
  Alcotest.(check bool) "engine=solver = no token" true
    (P.parse_query "axiom mp wo engine=solver" = P.parse_query "axiom mp wo");
  (match P.parse_query "estimate settling tso gamma=2" with
   | Ok
       (P.Estimate
          { kind = P.Settling { gamma = 2; p = 0.5; m = 64 }; seed = 1; trials = 100_000;
            target_width = None; _ }) -> ()
   | Ok q -> Alcotest.failf "unexpected parse: %s" (P.query_to_string q)
   | Error m -> Alcotest.fail m);
  match P.parse_query "estimate joint sc n=3 width=0.02 trials=5000" with
  | Ok (P.Estimate { kind = P.Joint { n = 3 }; trials = 5000; target_width = Some w; _ }) ->
    Alcotest.(check (float 1e-12)) "width" 0.02 w
  | Ok q -> Alcotest.failf "unexpected parse: %s" (P.query_to_string q)
  | Error m -> Alcotest.fail m

let test_parse_query_rejects () =
  let rejects s =
    match P.parse_query s with
    | Error _ -> ()
    | Ok q -> Alcotest.failf "%S parsed to %s" s (P.query_to_string q)
  in
  List.iter rejects
    [
      "";
      "frobnicate sb tso";
      "verify sb";
      "verify sb notamodel";
      "verify sb tso window=abc";
      "verify sb tso bogus=1";
      "axiom sb tso engine=generate";
      "axiom sb tso engine";
      "estimate warp sc";
      "estimate shift";
      "estimate shift gammas=1,x";
      "estimate joint sc n=2 width=nope";
    ]

let test_address_round_trip () =
  List.iter
    (fun s ->
      match P.address_of_string s with
      | Ok a -> Alcotest.(check string) "address round-trips" s (P.address_to_string a)
      | Error m -> Alcotest.failf "%S: %s" s m)
    [ "/tmp/memrel.sock"; "relative.sock"; "tcp:127.0.0.1:7654"; "tcp:localhost:80" ];
  (match P.address_of_string "tcp::7654" with
   | Ok (P.Tcp ("127.0.0.1", 7654)) -> ()
   | _ -> Alcotest.fail "empty host should default to 127.0.0.1");
  match P.address_of_string "tcp:host:notaport" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad port accepted"

let test_framing_round_trip () =
  (* a socketpair exercises the real read/write path, short reads included *)
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with Unix.Unix_error _ -> ());
      Unix.close b)
    (fun () ->
      let payloads = [ ""; "x"; String.make 70_000 'q' ] in
      List.iter (fun p -> P.write_frame a p) payloads;
      List.iter
        (fun expected ->
          match P.read_frame b with
          | Ok (Some got) -> Alcotest.(check string) "frame round-trips" expected got
          | Ok None -> Alcotest.fail "unexpected EOF"
          | Error m -> Alcotest.fail m)
        payloads;
      Unix.close a;
      match P.read_frame b with
      | Ok None -> ()
      | Ok (Some _) -> Alcotest.fail "expected EOF"
      | Error m -> Alcotest.failf "EOF should be clean: %s" m)

let test_framing_rejects_bad_magic () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> (try Unix.close a with Unix.Unix_error _ -> ()); Unix.close b)
    (fun () ->
      ignore (Unix.write_substring a "JUNK\x00\x00\x00\x01z" 0 9);
      Unix.close a;
      match P.read_frame b with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "bad magic accepted")

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("request round-trip", test_request_round_trip);
      ("result round-trip", test_result_round_trip);
      ("response round-trip", test_response_round_trip);
      ("result splice byte-identical", test_result_response_splice);
      ("batch splice byte-identical", test_items_response_splice);
      ("garbage rejected", test_decode_rejects_garbage);
      ("parse_query round-trip", test_parse_query_round_trip);
      ("parse_query defaults", test_parse_query_defaults);
      ("parse_query rejects", test_parse_query_rejects);
      ("address round-trip", test_address_round_trip);
      ("framing round-trip", test_framing_round_trip);
      ("framing rejects bad magic", test_framing_rejects_bad_magic);
    ]
