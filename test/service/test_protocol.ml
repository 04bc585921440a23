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

(* -- golden bytes ---------------------------------------------------------
   The exact MRF1 v2 bytes of every sample above. Result bytes are what the
   cache keeps on disk and splices into replies, so a change here breaks
   stored entries and deployed clients: it needs a version bump, never a
   silent re-pin. *)

let hex s =
  String.concat "" (List.map (fun c -> Printf.sprintf "%02x" (Char.code c)) (List.of_seq (String.to_seq s)))

let origins = [ P.Computed; P.Memory_hit; P.Disk_hit ]

(* what the engine answers to [verify sb tso], the first sample query *)
let verify_sb_tso_result =
  {
    P.payload =
      P.Verdict
        { observed_relaxed = true; expected_relaxed = true; agrees = true; outcomes = 4;
          terminals = 4 };
    partial = None;
  }

(* scripts/serve_smoke.sh sends this frame to the built daemon and expects
   these replies, in this order: keep each on one line *)
let golden_verify_sb_tso_request = "02000000027362010000000000000008000000"
let golden_verify_sb_tso_computed = "020000000101010000000000000004000000000000000400"
let golden_verify_sb_tso_memory = "020001000101010000000000000004000000000000000400"

let golden_encodings () =
  let labelled f xs = List.mapi (fun i x -> (Printf.sprintf "%d" i, f x)) xs in
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
  let spliced =
    List.concat_map
      (fun result ->
        List.map (fun origin -> P.encode_result_response ~origin (P.encode_result result)) origins)
      (sample_results @ [ verify_sb_tso_result ])
  in
  let items =
    P.encode_items_response
      (P.encode_result_item ~origin:P.Memory_hit (P.encode_result verify_sb_tso_result)
      :: List.map P.encode_response_item sample_responses)
  in
  List.concat
    [
      List.map (fun (i, b) -> ("request " ^ i, b)) (labelled P.encode_request requests);
      List.map (fun (i, b) -> ("result " ^ i, b)) (labelled P.encode_result sample_results);
      List.map (fun (i, b) -> ("response " ^ i, b)) (labelled P.encode_response sample_responses);
      List.map (fun (i, b) -> ("item " ^ i, b)) (labelled P.encode_response_item sample_responses);
      List.map (fun (i, b) -> ("splice " ^ i, b)) (labelled Fun.id spliced);
      [ ("items response", items) ];
    ]

let golden =
  [
    ("request 0", "02000000027362010000000000000008000000");
    ("request 1", "02000000027362010000000000000008013ff80000000000000100000000000003e8010000000000000100");
    ("request 2", "0200010003696e6300000000000000000401000000");
    ("request 3", "0200010003696e6300000000000000000401013ff80000000000000100000000000003e8010000000000000100");
    ("request 4", "02000100026d7003000000000000000c00000000");
    ("request 5", "02000100026d7003000000000000000c00013ff80000000000000100000000000003e8010000000000000100");
    ("request 6", "02000200026c62020000000000000008000000");
    ("request 7", "02000200026c62020000000000000008013ff80000000000000100000000000003e8010000000000000100");
    ("request 8", "020002000469726977030000000000000006000000");
    ("request 9", "020002000469726977030000000000000006013ff80000000000000100000000000003e8010000000000000100");
    ("request 10", "0200030000000000000000023fd0000000000000000000000000004001000000000000002a000000000000271000000000");
    ("request 11", "0200030000000000000000023fd0000000000000000000000000004001000000000000002a000000000000271000013ff80000000000000100000000000003e8010000000000000100");
    ("request 12", "020003010000000300000000000000030000000000000002000000000000000500000000000000000100000000000186a0013f847ae147ae147b000000");
    ("request 13", "020003010000000300000000000000030000000000000002000000000000000500000000000000000100000000000186a0013f847ae147ae147b013ff80000000000000100000000000003e8010000000000000100");
    ("request 14", "020003020000000000000003030000000000000007000000000000c35000000000");
    ("request 15", "020003020000000000000003030000000000000007000000000000c35000013ff80000000000000100000000000003e8010000000000000100");
    ("request 16", "0201000000080000027362010000000000000008000000010003696e63000000000000000004010000000100026d7003000000000000000c000000000200026c6202000000000000000800000002000469726977030000000000000006000000030000000000000000023fd0000000000000000000000000004001000000000000002a00000000000027100000000003010000000300000000000000030000000000000002000000000000000500000000000000000100000000000186a0013f847ae147ae147b00000003020000000000000003030000000000000007000000000000c35000000000");
    ("request 17", "020100000000");
    ("request 18", "0202");
    ("request 19", "0203");
    ("request 20", "0204");
    ("result 0", "000101010000000000000004000000000000000700");
    ("result 1", "0100000003000000020004303a723000000000000000000004313a72310000000000000001000000000000000300000001000178000000000000000200000000000000010000000000000000000000050000000000000009000000000000007b010008646561646c696e6500000000000000113fd0000000000000");
    ("result 2", "02000000010000000100017800000000000000010000000000000002000000000000000200");
    ("result 3", "033fbe353f7ced91683fbc28f5c28f5c293fc04189374bc6a800000000000027100100");
    ("response 0", "020000000101010000000000000004000000000000000700");
    ("response 1", "0200000100000003000000020004303a723000000000000000000004313a72310000000000000001000000000000000300000001000178000000000000000200000000000000010000000000000000000000050000000000000009000000000000007b010008646561646c696e6500000000000000113fd0000000000000");
    ("response 2", "02000002000000010000000100017800000000000000010000000000000002000000000000000200");
    ("response 3", "020000033fbe353f7ced91683fbc28f5c28f5c293fc04189374bc6a800000000000027100100");
    ("response 4", "020100000005000200010101000000000000000400000000000000070000020100000003000000020004303a723000000000000000000004313a72310000000000000001000000000000000300000001000178000000000000000200000000000000010000000000000000000000050000000000000009000000000000007b010008646561646c696e6500000000000000113fd00000000000000002020000000100000001000178000000000000000100000000000000020000000000000002000002033fbe353f7ced91683fbc28f5c28f5c293fc04189374bc6a8000000000000271001000201000c6e6f20737563682074657374");
    ("response 5", "0202000003626164");
    ("response 6", "02063fd0000000000000");
    ("response 7", "02030000000000000003000000000000000200000000000000010000000000000004000000000000000300000000000000020000000000000001000000000000000b400400000000000000000000000000020000000000000005000000000000000100000000000000010000000000000003");
    ("response 8", "0204");
    ("response 9", "0205");
    ("item 0", "0000000101010000000000000004000000000000000700");
    ("item 1", "00000100000003000000020004303a723000000000000000000004313a72310000000000000001000000000000000300000001000178000000000000000200000000000000010000000000000000000000050000000000000009000000000000007b010008646561646c696e6500000000000000113fd0000000000000");
    ("item 2", "000002000000010000000100017800000000000000010000000000000002000000000000000200");
    ("item 3", "0000033fbe353f7ced91683fbc28f5c28f5c293fc04189374bc6a800000000000027100100");
    ("item 4", "0100000005000200010101000000000000000400000000000000070000020100000003000000020004303a723000000000000000000004313a72310000000000000001000000000000000300000001000178000000000000000200000000000000010000000000000000000000050000000000000009000000000000007b010008646561646c696e6500000000000000113fd00000000000000002020000000100000001000178000000000000000100000000000000020000000000000002000002033fbe353f7ced91683fbc28f5c28f5c293fc04189374bc6a8000000000000271001000201000c6e6f20737563682074657374");
    ("item 5", "02000003626164");
    ("item 6", "063fd0000000000000");
    ("item 7", "030000000000000003000000000000000200000000000000010000000000000004000000000000000300000000000000020000000000000001000000000000000b400400000000000000000000000000020000000000000005000000000000000100000000000000010000000000000003");
    ("item 8", "04");
    ("item 9", "05");
    ("splice 0", "020000000101010000000000000004000000000000000700");
    ("splice 1", "020001000101010000000000000004000000000000000700");
    ("splice 2", "020002000101010000000000000004000000000000000700");
    ("splice 3", "0200000100000003000000020004303a723000000000000000000004313a72310000000000000001000000000000000300000001000178000000000000000200000000000000010000000000000000000000050000000000000009000000000000007b010008646561646c696e6500000000000000113fd0000000000000");
    ("splice 4", "0200010100000003000000020004303a723000000000000000000004313a72310000000000000001000000000000000300000001000178000000000000000200000000000000010000000000000000000000050000000000000009000000000000007b010008646561646c696e6500000000000000113fd0000000000000");
    ("splice 5", "0200020100000003000000020004303a723000000000000000000004313a72310000000000000001000000000000000300000001000178000000000000000200000000000000010000000000000000000000050000000000000009000000000000007b010008646561646c696e6500000000000000113fd0000000000000");
    ("splice 6", "02000002000000010000000100017800000000000000010000000000000002000000000000000200");
    ("splice 7", "02000102000000010000000100017800000000000000010000000000000002000000000000000200");
    ("splice 8", "02000202000000010000000100017800000000000000010000000000000002000000000000000200");
    ("splice 9", "020000033fbe353f7ced91683fbc28f5c28f5c293fc04189374bc6a800000000000027100100");
    ("splice 10", "020001033fbe353f7ced91683fbc28f5c28f5c293fc04189374bc6a800000000000027100100");
    ("splice 11", "020002033fbe353f7ced91683fbc28f5c28f5c293fc04189374bc6a800000000000027100100");
    ("splice 12", "020000000101010000000000000004000000000000000400");
    ("splice 13", "020001000101010000000000000004000000000000000400");
    ("splice 14", "020002000101010000000000000004000000000000000400");
    ("items response", "02010000000b0001000101010000000000000004000000000000000400000000010101000000000000000400000000000000070000000100000003000000020004303a723000000000000000000004313a72310000000000000001000000000000000300000001000178000000000000000200000000000000010000000000000000000000050000000000000009000000000000007b010008646561646c696e6500000000000000113fd00000000000000000020000000100000001000178000000000000000100000000000000020000000000000002000000033fbe353f7ced91683fbc28f5c28f5c293fc04189374bc6a8000000000000271001000100000005000200010101000000000000000400000000000000070000020100000003000000020004303a723000000000000000000004313a72310000000000000001000000000000000300000001000178000000000000000200000000000000010000000000000000000000050000000000000009000000000000007b010008646561646c696e6500000000000000113fd00000000000000002020000000100000001000178000000000000000100000000000000020000000000000002000002033fbe353f7ced91683fbc28f5c28f5c293fc04189374bc6a8000000000000271001000201000c6e6f2073756368207465737402000003626164063fd0000000000000030000000000000003000000000000000200000000000000010000000000000004000000000000000300000000000000020000000000000001000000000000000b4004000000000000000000000000000200000000000000050000000000000001000000000000000100000000000000030405");
  ]

let test_golden_bytes () =
  let got = golden_encodings () in
  Alcotest.(check int) "golden entries" (List.length golden) (List.length got);
  List.iter2
    (fun (label, expected) (label', bytes) ->
      Alcotest.(check string) "golden label" label label';
      Alcotest.(check string) label expected (hex bytes))
    golden got;
  Alcotest.(check string) "smoke request pinned" golden_verify_sb_tso_request
    (List.assoc "request 0" golden);
  Alcotest.(check string) "smoke computed reply pinned" golden_verify_sb_tso_computed
    (List.assoc "splice 12" golden);
  Alcotest.(check string) "smoke memory reply pinned" golden_verify_sb_tso_memory
    (List.assoc "splice 13" golden);
  (* the smoke replies are what the engine really computes *)
  let module Engine = Memrel_service.Engine in
  match Engine.run ~caps:Engine.no_caps (List.hd sample_queries) P.no_limits with
  | Ok r ->
    Alcotest.(check string) "engine verify sb tso" (P.encode_result verify_sb_tso_result)
      (P.encode_result r)
  | Error e -> Alcotest.fail e.Engine.message

(* -- decoder fuzzing ------------------------------------------------------
   No input makes a decoder raise: every proper prefix of every golden
   encoding, seeded byte mutations of them and random strings all decode
   to [Ok] or [Error]. *)

let decoders_total s =
  List.iter
    (fun (name, decode) ->
      match decode s with
      | () -> ()
      | exception e -> Alcotest.failf "%s raised %s on %S" name (Printexc.to_string e) s)
    [
      ("decode_request", fun s -> ignore (P.decode_request s));
      ("decode_response", fun s -> ignore (P.decode_response s));
      ("decode_result", fun s -> ignore (P.decode_result s));
    ]

let test_decoders_never_raise () =
  let samples = Array.of_list (List.map snd (golden_encodings ())) in
  Array.iter
    (fun s ->
      for n = 0 to String.length s - 1 do
        decoders_total (String.sub s 0 n)
      done)
    samples;
  let rng = Random.State.make [| 21 |] in
  let byte () = Char.chr (Random.State.int rng 256) in
  for i = 1 to 10_000 do
    let s =
      if i mod 4 = 0 then
        (* random bytes, half of them behind a valid version byte *)
        (if Random.State.bool rng then String.make 1 (Char.chr P.version) else "")
        ^ String.init (Random.State.int rng 48) (fun _ -> byte ())
      else begin
        let b = Bytes.of_string samples.(Random.State.int rng (Array.length samples)) in
        for _ = 0 to Random.State.int rng 3 do
          Bytes.set b (Random.State.int rng (Bytes.length b)) (byte ())
        done;
        Bytes.to_string b
      end
    in
    decoders_total s
  done;
  (* Results nested [k] deep around a Pong, 5 bytes a level: a few levels
     decode, and 3 million levels (15 MB) are refused at once instead of
     recursing 3 million times *)
  let nested k =
    let b = Buffer.create ((5 * k) + 2) in
    Buffer.add_uint8 b P.version;
    for _ = 1 to k do
      Buffer.add_uint8 b 1;
      Buffer.add_int32_be b 1l
    done;
    Buffer.add_uint8 b 4;
    Buffer.contents b
  in
  let rec wrap k r = if k = 0 then r else wrap (k - 1) (P.Results [ r ]) in
  Alcotest.(check string) "nested encoding as built" (P.encode_response (wrap 3 P.Pong)) (nested 3);
  (match P.decode_response (nested 3) with
   | Ok r -> Alcotest.(check bool) "3 levels decode" true (r = wrap 3 P.Pong)
   | Error m -> Alcotest.failf "3 levels: %s" m);
  let deep = nested 3_000_000 in
  decoders_total deep;
  let t0 = Unix.gettimeofday () in
  (match P.decode_response deep with
   | Ok _ -> Alcotest.fail "3 million levels decoded"
   | Error m ->
     Alcotest.(check bool) ("refused for its nesting: " ^ m) true
       (Astring.String.is_infix ~affix:"nesting" m));
  Alcotest.(check bool) "refused at once" true (Unix.gettimeofday () -. t0 < 0.5)

let test_i64_out_of_range_rejected () =
  (* a wire integer outside OCaml's 63-bit range is refused, not wrapped:
     a raw client's seed of 2^62 must not be answered as seed -2^62 *)
  let request seed =
    P.Query
      ( P.Estimate
          { kind = P.Joint { n = 2 }; family = Model.Sequential_consistency; seed; trials = 10;
            target_width = None },
        P.no_limits )
  in
  List.iter
    (fun seed ->
      match P.decode_request (P.encode_request (request seed)) with
      | Ok r -> Alcotest.(check bool) (Printf.sprintf "seed %d round-trips" seed) true (r = request seed)
      | Error m -> Alcotest.fail m)
    [ max_int; min_int; 0; -1 ];
  let marker = "\x01\x02\x03\x04\x05\x06\x07\x08" in
  let bytes = P.encode_request (request 0x0102030405060708) in
  let at = Option.get (Astring.String.find_sub ~sub:marker bytes) in
  List.iter
    (fun wire ->
      let s = String.sub bytes 0 at ^ wire ^ String.sub bytes (at + 8) (String.length bytes - at - 8) in
      match P.decode_request s with
      | Error m -> Alcotest.(check bool) m true (Astring.String.is_infix ~affix:"out of range" m)
      | Ok _ -> Alcotest.failf "seed %s accepted" (hex wire))
    [ "\x40\x00\x00\x00\x00\x00\x00\x00"; "\xbf\xff\xff\xff\xff\xff\xff\xff"; "\x7f\xff\xff\xff\xff\xff\xff\xff" ]

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
      ("golden bytes", test_golden_bytes);
      ("decoders never raise", test_decoders_never_raise);
      ("i64 out of range rejected", test_i64_out_of_range_rejected);
    ]
