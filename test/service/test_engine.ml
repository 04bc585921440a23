module P = Memrel_service.Protocol
module Engine = Memrel_service.Engine
module Cache = Memrel_service.Cache
module Model = Memrel_memmodel.Model
module Litmus = Memrel_machine.Litmus

let families =
  [ Model.Sequential_consistency; Model.Total_store_order; Model.Partial_store_order;
    Model.Weak_ordering ]

let temp_dir () =
  let d = Filename.temp_file "memrel_engine" ".d" in
  Sys.remove d;
  d

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ()) (fun () -> f dir)

let run_ok q limits =
  match Engine.run ~caps:Engine.no_caps q limits with
  | Ok r -> r
  | Error e -> Alcotest.failf "engine error: %s" e.Engine.message

let test_verify_agrees_with_litmus_check () =
  List.iter
    (fun (t : Litmus.t) ->
      List.iter
        (fun family ->
          let q = P.Verify { test = t.Litmus.name; family; window = 8 } in
          match (run_ok q P.no_limits).P.payload with
          | P.Verdict { observed_relaxed; expected_relaxed; agrees; _ } ->
            let v = Litmus.check t family in
            Alcotest.(check bool)
              (t.Litmus.name ^ " observed")
              v.Litmus.observed_relaxed observed_relaxed;
            Alcotest.(check bool)
              (t.Litmus.name ^ " expected")
              v.Litmus.expected_relaxed expected_relaxed;
            Alcotest.(check bool) (t.Litmus.name ^ " agrees") true agrees
          | _ -> Alcotest.fail "wrong payload kind")
        families)
    Litmus.all

let test_enumerate_matches_direct () =
  let q = P.Enumerate { test = "sb"; family = Model.Total_store_order; window = 8; por = false } in
  match (run_ok q P.no_limits).P.payload with
  | P.Outcomes { entries; terminals; _ } ->
    let direct, _ = Litmus.run_exhaustive (Litmus.find "sb") Model.Total_store_order in
    Alcotest.(check int) "outcome count" (List.length direct.Memrel_machine.Enumerate.outcomes)
      (List.length entries);
    Alcotest.(check int) "terminals" direct.Memrel_machine.Enumerate.terminals terminals;
    Alcotest.(check bool) "entry lists equal" true
      (entries = direct.Memrel_machine.Enumerate.outcomes)
  | _ -> Alcotest.fail "wrong payload kind"

(* the daemon answers Axiom queries with the solver; its result bytes must
   be exactly what the generate-and-prune oracle's entries and accepted
   count encode to *)
let test_axiom_engines_agree () =
  let module G = Memrel_oracle.Generate in
  List.iter
    (fun (t : Litmus.t) ->
      List.iter
        (fun family ->
          let name = t.Litmus.name ^ " " ^ Model.family_name family in
          let q = P.Axiom { test = t.Litmus.name; family; window = 8 } in
          let g = G.run ~window:8 t family in
          let oracle =
            {
              P.payload =
                P.Axiom_outcomes
                  {
                    entries =
                      List.map (fun (e : G.entry) -> (e.G.outcome, e.G.candidates)) g.G.entries;
                    accepted = g.G.stats.G.accepted;
                  };
              partial = None;
            }
          in
          Alcotest.(check string) (name ^ " result bytes") (P.encode_result oracle)
            (P.encode_result (run_ok q P.no_limits)))
        families)
    Litmus.all

let test_estimates_deterministic () =
  List.iter
    (fun kind ->
      let q =
        P.Estimate
          { kind; family = Model.Total_store_order; seed = 3; trials = 2000;
            target_width = None }
      in
      let a = run_ok q P.no_limits in
      let b = run_ok q P.no_limits in
      Alcotest.(check string) "bit-identical rerun" (P.encode_result a) (P.encode_result b);
      match a.P.payload with
      | P.Estimated { point; lo; hi; trials; _ } ->
        Alcotest.(check int) "full trials" 2000 trials;
        Alcotest.(check bool) "ordered interval" true (lo <= point && point <= hi)
      | _ -> Alcotest.fail "wrong payload kind")
    [
      P.Settling { gamma = 1; p = 0.5; m = 64 };
      P.Shift { gammas = [| 3; 2 |] };
      P.Joint { n = 2 };
    ]

let test_adaptive_estimate_stops () =
  let q =
    P.Estimate
      {
        kind = P.Shift { gammas = [| 1; 1 |] };
        family = Model.Sequential_consistency;
        seed = 1;
        trials = 400_000;
        target_width = Some 0.05;
      }
  in
  match (run_ok q P.no_limits).P.payload with
  | P.Estimated { trials; target_met; lo; hi; _ } ->
    Alcotest.(check bool) "target met" true target_met;
    Alcotest.(check bool) "stopped early" true (trials < 400_000);
    Alcotest.(check bool) "width satisfied" true (hi -. lo <= 0.05)
  | _ -> Alcotest.fail "wrong payload kind"

let test_budget_partial () =
  let limits = { P.deadline_s = Some 0.; max_work = None; max_mem_mb = None } in
  let q = P.Enumerate { test = "inc5"; family = Model.Sequential_consistency; window = 8; por = false } in
  let r = run_ok q limits in
  match r.P.partial with
  | Some p -> Alcotest.(check string) "deadline cause" "deadline" p.P.cause
  | None -> Alcotest.fail "expected a partial result"

let test_caps_clamp_requests () =
  (* a server cap arms the budget even when the request sets no limits *)
  let caps = { Engine.no_caps with Engine.max_deadline_s = Some 0. } in
  match Engine.run ~caps
          (P.Enumerate { test = "inc5"; family = Model.Sequential_consistency; window = 8;
                         por = false })
          P.no_limits with
  | Ok { P.partial = Some _; _ } -> ()
  | Ok { P.partial = None; _ } -> Alcotest.fail "cap ignored"
  | Error e -> Alcotest.failf "engine error: %s" e.Engine.message

let expect_error code q =
  match Engine.run ~caps:Engine.no_caps q P.no_limits with
  | Error e -> Alcotest.(check string) "error code" (P.error_code_to_string code)
                 (P.error_code_to_string e.Engine.code)
  | Ok _ -> Alcotest.fail "expected an error"

let test_typed_errors () =
  expect_error P.Unknown_test
    (P.Verify { test = "nonexistent"; family = Model.Sequential_consistency; window = 8 });
  expect_error P.Bad_request
    (P.Verify { test = "sb"; family = Model.Sequential_consistency; window = 0 });
  expect_error P.Unsupported
    (P.Verify { test = "sb"; family = Model.Custom; window = 8 });
  expect_error P.Bad_request
    (P.Estimate
       { kind = P.Joint { n = 1 }; family = Model.Sequential_consistency; seed = 1;
         trials = 1000; target_width = None });
  expect_error P.Bad_request
    (P.Estimate
       { kind = P.Settling { gamma = -1; p = 0.5; m = 64 };
         family = Model.Sequential_consistency; seed = 1; trials = 1000; target_width = None })

let test_cache_key_name_independent () =
  (* inc3 via the incN family and via find: one structural key *)
  let key q = match Engine.cache_key q with Ok k -> k | Error e -> Alcotest.fail e.Engine.message in
  let k1 = key (P.Verify { test = "inc3"; family = Model.Total_store_order; window = 8 }) in
  Alcotest.(check bool) "key built on the hash, not the name" true
    (Astring.String.is_infix ~affix:(Litmus.hash (Litmus.increment_n 3)) k1)

(* the memoized (hash, test) table must give every domain the keys a
   fresh lookup gives, with several domains filling the table at once; a
   non-canonical incN name ("inc05") is refused, not answered as an alias *)
let test_cache_key_memo_consistent () =
  let names = Litmus.names @ List.init 8 (fun i -> Printf.sprintf "inc%d" (i + 2)) in
  let key test =
    match Engine.cache_key (P.Verify { test; family = Model.Total_store_order; window = 8 }) with
    | Ok k -> k
    | Error e -> Alcotest.fail e.Engine.message
  in
  let expected name =
    Printf.sprintf "verify|%s|TSO|w8" (Litmus.hash (Litmus.find name))
  in
  let domains =
    List.init 2 (fun _ -> Domain.spawn (fun () -> List.map (fun n -> List.init 50 (fun _ -> key n)) names))
  in
  List.iter
    (fun per_name ->
      List.iter2
        (fun name keys -> List.iter (Alcotest.(check string) name (expected name)) keys)
        names per_name)
    (List.map Domain.join domains);
  let inc05 = P.Verify { test = "inc05"; family = Model.Total_store_order; window = 8 } in
  (match Engine.cache_key inc05 with
   | Error { Engine.code = P.Unknown_test; message } ->
     (* worded as the CLI words it *)
     Alcotest.(check string) "inc05 refusal" (Litmus.unknown_test "inc05") message
   | Error e -> Alcotest.failf "inc05: %s" (P.error_code_to_string e.Engine.code)
   | Ok k -> Alcotest.failf "inc05 answered as %s" k);
  (* the other kinds keep the key layout the disk tier was written with *)
  let hash = Litmus.hash (Litmus.find "mp") in
  List.iter
    (fun (q, want) ->
      match Engine.cache_key q with
      | Ok k -> Alcotest.(check string) want want k
      | Error e -> Alcotest.fail e.Engine.message)
    [
      ( P.Enumerate { test = "mp"; family = Model.Weak_ordering; window = 3; por = true },
        Printf.sprintf "enum|%s|WO|w3|por1" hash );
      ( P.Enumerate { test = "mp"; family = Model.Partial_store_order; window = 8; por = false },
        Printf.sprintf "enum|%s|PSO|w8|por0" hash );
      ( P.Axiom { test = "mp"; family = Model.Sequential_consistency; window = 1024 },
        Printf.sprintf "axiom|%s|SC|w1024" hash );
    ]

(* incN past Litmus.max_inc_threads is an unknown test, refused before the
   test is built: a billion-thread name must not cost a billion threads *)
let test_incn_bounded () =
  with_dir @@ fun dir ->
  let cache = Cache.create ~dir () in
  let top = Printf.sprintf "inc%d" Litmus.max_inc_threads in
  (match Engine.cache_key (P.Axiom { test = top; family = Model.Weak_ordering; window = 8 }) with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "%s: %s" top e.Engine.message);
  List.iter
    (fun test ->
      List.iter
        (fun q ->
          let t0 = Unix.gettimeofday () in
          (match Engine.run_cached ~caps:Engine.no_caps cache q P.no_limits with
           | Error { Engine.code = P.Unknown_test; _ } -> ()
           | Error e -> Alcotest.failf "%s: %s" test (P.error_code_to_string e.Engine.code)
           | Ok _ -> Alcotest.failf "%s answered" test);
          Alcotest.(check bool) (test ^ " refused at once") true (Unix.gettimeofday () -. t0 < 1.))
        [
          P.Verify { test; family = Model.Total_store_order; window = 8 };
          P.Enumerate { test; family = Model.Sequential_consistency; window = 8; por = true };
          P.Axiom { test; family = Model.Weak_ordering; window = 8 };
        ])
    [ Printf.sprintf "inc%d" (Litmus.max_inc_threads + 1); "inc1000000000" ]

let test_cache_keys_distinct () =
  let queries =
    [
      P.Verify { test = "sb"; family = Model.Total_store_order; window = 8 };
      P.Verify { test = "sb"; family = Model.Sequential_consistency; window = 8 };
      P.Verify { test = "sb"; family = Model.Total_store_order; window = 9 };
      P.Verify { test = "mp"; family = Model.Total_store_order; window = 8 };
      P.Enumerate { test = "sb"; family = Model.Total_store_order; window = 8; por = false };
      P.Enumerate { test = "sb"; family = Model.Total_store_order; window = 8; por = true };
      P.Axiom { test = "sb"; family = Model.Total_store_order; window = 8 };
      P.Estimate
        { kind = P.Settling { gamma = 1; p = 0.5; m = 64 }; family = Model.Total_store_order;
          seed = 1; trials = 1000; target_width = None };
      P.Estimate
        { kind = P.Settling { gamma = 1; p = 0.25; m = 64 }; family = Model.Total_store_order;
          seed = 1; trials = 1000; target_width = None };
      P.Estimate
        { kind = P.Settling { gamma = 1; p = 0.5; m = 64 }; family = Model.Total_store_order;
          seed = 1; trials = 1000; target_width = Some 0.01 };
    ]
  in
  let keys =
    List.map
      (fun q ->
        match Engine.cache_key q with
        | Ok k -> k
        | Error e -> Alcotest.fail e.Engine.message)
      queries
  in
  List.iteri
    (fun i ki ->
      List.iteri
        (fun j kj -> if i < j && ki = kj then Alcotest.failf "key collision: %s" ki)
        keys)
    keys

(* -- the byte-identity differential -------------------------------------
   For every query kind, the bytes a client receives from the cache — on
   the computing run, on a memory hit, and on a disk hit in a fresh
   instance over the same directory — must equal the direct engine
   encoding exactly. *)

let differential_queries =
  List.concat_map
    (fun (t : Litmus.t) ->
      List.concat_map
        (fun family ->
          [
            P.Verify { test = t.Litmus.name; family; window = 8 };
            P.Enumerate { test = t.Litmus.name; family; window = 8; por = true };
            P.Axiom { test = t.Litmus.name; family; window = 8 };
          ])
        families)
    Litmus.all
  @ [
      P.Estimate
        { kind = P.Settling { gamma = 1; p = 0.5; m = 64 }; family = Model.Weak_ordering;
          seed = 2; trials = 1500; target_width = None };
      P.Estimate
        { kind = P.Shift { gammas = [| 2; 3 |] }; family = Model.Sequential_consistency;
          seed = 2; trials = 1500; target_width = None };
      P.Estimate
        { kind = P.Joint { n = 2 }; family = Model.Total_store_order; seed = 2; trials = 1500;
          target_width = Some 0.2 };
    ]

let test_cached_bytes_identical_to_direct () =
  with_dir @@ fun dir ->
  let caps = Engine.no_caps in
  let cache = Cache.create ~dir () in
  let cached q expect_origin =
    match Engine.run_cached ~caps cache q P.no_limits with
    | Ok (bytes, origin) ->
      Alcotest.(check string)
        (P.query_to_string q ^ " origin")
        (P.origin_to_string expect_origin) (P.origin_to_string origin);
      bytes
    | Error e -> Alcotest.failf "%s: %s" (P.query_to_string q) e.Engine.message
  in
  let direct =
    List.map
      (fun q ->
        match Engine.run ~caps q P.no_limits with
        | Ok r -> (q, P.encode_result r)
        | Error e -> Alcotest.failf "%s: %s" (P.query_to_string q) e.Engine.message)
      differential_queries
  in
  List.iter
    (fun (q, bytes) ->
      Alcotest.(check string) (P.query_to_string q ^ " computed") bytes
        (cached q Cache.Computed))
    direct;
  List.iter
    (fun (q, bytes) ->
      Alcotest.(check string) (P.query_to_string q ^ " memory hit") bytes
        (cached q Cache.Memory_hit))
    direct;
  (* a fresh instance over the same directory: disk tier only *)
  let cache = Cache.create ~dir () in
  let cached q expect_origin =
    match Engine.run_cached ~caps cache q P.no_limits with
    | Ok (bytes, origin) ->
      Alcotest.(check string)
        (P.query_to_string q ^ " origin")
        (P.origin_to_string expect_origin) (P.origin_to_string origin);
      bytes
    | Error e -> Alcotest.failf "%s: %s" (P.query_to_string q) e.Engine.message
  in
  List.iter
    (fun (q, bytes) ->
      Alcotest.(check string) (P.query_to_string q ^ " disk hit") bytes
        (cached q Cache.Disk_hit))
    direct

let test_partial_results_not_cached () =
  with_dir @@ fun dir ->
  let cache = Cache.create ~dir () in
  let limits = { P.deadline_s = Some 0.; max_work = None; max_mem_mb = None } in
  let q = P.Enumerate { test = "inc4"; family = Model.Sequential_consistency; window = 8; por = false } in
  (match Engine.run_cached ~caps:Engine.no_caps cache q limits with
   | Ok (_, origin) ->
     Alcotest.(check string) "first is computed" "computed" (P.origin_to_string origin)
   | Error e -> Alcotest.fail e.Engine.message);
  (* an unlimited retry recomputes (no stale partial served) and completes *)
  match Engine.run_cached ~caps:Engine.no_caps cache q P.no_limits with
  | Ok (bytes, origin) ->
    Alcotest.(check string) "retry recomputes" "computed" (P.origin_to_string origin);
    (match P.decode_result bytes with
     | Ok { P.partial = None; _ } -> ()
     | Ok _ -> Alcotest.fail "complete run still partial"
     | Error m -> Alcotest.fail m);
    (* and the complete answer IS cached *)
    (match Engine.run_cached ~caps:Engine.no_caps cache q P.no_limits with
     | Ok (_, origin) ->
       Alcotest.(check string) "now cached" "memory" (P.origin_to_string origin)
     | Error e -> Alcotest.fail e.Engine.message)
  | Error e -> Alcotest.fail e.Engine.message

let test_extmem_routing_byte_identical () =
  (* routing verify/enumerate through the external-memory BFS must not
     change a single byte of the encoded result — that is what lets a
     server switch engines without invalidating its cache *)
  with_dir @@ fun spill_root ->
  let extmem = { Engine.spill_root; mem_budget_bytes = 1 lsl 20 } in
  let queries =
    P.Verify { test = "sb"; family = Model.Total_store_order; window = 8 }
    :: List.concat_map
         (fun por ->
           List.map
             (fun family -> P.Enumerate { test = "inc4"; family; window = 8; por })
             families)
         [ false; true ]
  in
  List.iter
    (fun q ->
      let enc r =
        match r with
        | Ok r -> P.encode_result r
        | Error e -> Alcotest.failf "%s: %s" (P.query_to_string q) e.Engine.message
      in
      let ram = enc (Engine.run ~caps:Engine.no_caps q P.no_limits) in
      let ext = enc (Engine.run ~caps:Engine.no_caps ~extmem q P.no_limits) in
      Alcotest.(check string) (P.query_to_string q ^ " bytes") ram ext)
    queries;
  (* a budget-tripped extmem query keeps spill state and the unlimited
     retry resumes it to the same complete bytes *)
  let q = P.Enumerate { test = "inc4"; family = Model.Total_store_order; window = 8; por = false } in
  let limits = { P.deadline_s = None; max_work = Some 700; max_mem_mb = None } in
  (match Engine.run ~caps:Engine.no_caps ~extmem q limits with
   | Ok r -> Alcotest.(check bool) "work-capped run partial" true (r.P.partial <> None)
   | Error e -> Alcotest.fail e.Engine.message);
  Alcotest.(check bool) "spill state kept for resumption" true
    (Array.exists
       (fun d -> Sys.is_directory (Filename.concat spill_root d))
       (Sys.readdir spill_root));
  match (Engine.run ~caps:Engine.no_caps q P.no_limits, Engine.run ~caps:Engine.no_caps ~extmem q P.no_limits) with
  | Ok ram, Ok resumed ->
    Alcotest.(check string) "resumed completion byte-identical" (P.encode_result ram)
      (P.encode_result resumed)
  | Error e, _ | _, Error e -> Alcotest.fail e.Engine.message

let test_extmem_corrupt_spill_swept () =
  (* a truncated spill file (crash debris, torn rename) must not poison
     the query forever: the engine sweeps the corrupt state and restarts
     the run from scratch, answering with the exact in-RAM bytes *)
  with_dir @@ fun spill_root ->
  let extmem = { Engine.spill_root; mem_budget_bytes = 1 lsl 20 } in
  let q =
    P.Enumerate { test = "inc4"; family = Model.Total_store_order; window = 8; por = false }
  in
  let limits = { P.deadline_s = None; max_work = Some 700; max_mem_mb = None } in
  (match Engine.run ~caps:Engine.no_caps ~extmem q limits with
   | Ok r -> Alcotest.(check bool) "budget-tripped run partial" true (r.P.partial <> None)
   | Error e -> Alcotest.fail e.Engine.message);
  let truncated = ref 0 in
  Array.iter
    (fun d ->
      let dir = Filename.concat spill_root d in
      if Sys.is_directory dir then
        Array.iter
          (fun f ->
            let path = Filename.concat dir f in
            let n = (Unix.stat path).Unix.st_size in
            if n > 4 then begin
              let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
              Unix.ftruncate fd (n / 2);
              Unix.close fd;
              incr truncated
            end)
          (Sys.readdir dir))
    (Sys.readdir spill_root);
  Alcotest.(check bool) "some spill state corrupted" true (!truncated > 0);
  match
    ( Engine.run ~caps:Engine.no_caps q P.no_limits,
      Engine.run ~caps:Engine.no_caps ~extmem q P.no_limits )
  with
  | Ok ram, Ok healed ->
    Alcotest.(check string) "swept and restarted run byte-identical"
      (P.encode_result ram) (P.encode_result healed)
  | Error e, _ | _, Error e -> Alcotest.fail e.Engine.message

let test_extmem_old_manifest_swept () =
  (* spill state left by an earlier extmem layout (its manifest carries
     the "extmem/manifest" tag of the visited-run layout, or the
     "extmem/manifest2" tag of runs without sleep sets) is refused by the
     engine, swept, and the query restarted from scratch with the exact
     in-RAM bytes *)
  List.iter
    (fun tag ->
      with_dir @@ fun spill_root ->
      let extmem = { Engine.spill_root; mem_budget_bytes = 1 lsl 20 } in
      let q =
        P.Enumerate { test = "inc4"; family = Model.Total_store_order; window = 8; por = false }
      in
      let limits = { P.deadline_s = None; max_work = Some 700; max_mem_mb = None } in
      (match Engine.run ~caps:Engine.no_caps ~extmem q limits with
       | Ok r -> Alcotest.(check bool) "budget-tripped run partial" true (r.P.partial <> None)
       | Error e -> Alcotest.fail e.Engine.message);
      let replaced = ref 0 in
      Array.iter
        (fun d ->
          let manifest = Filename.concat (Filename.concat spill_root d) "MANIFEST" in
          if Sys.file_exists manifest then begin
            match Memrel_prob.Snapshot.write ~file:manifest ~tag "old layout" with
            | Ok () -> incr replaced
            | Error e -> Alcotest.fail (Memrel_prob.Snapshot.error_to_string e)
          end)
        (Sys.readdir spill_root);
      Alcotest.(check int) (tag ^ ": one old-layout manifest planted") 1 !replaced;
      match
        ( Engine.run ~caps:Engine.no_caps q P.no_limits,
          Engine.run ~caps:Engine.no_caps ~extmem q P.no_limits )
      with
      | Ok ram, Ok healed ->
        Alcotest.(check string) (tag ^ ": swept and restarted run byte-identical")
          (P.encode_result ram) (P.encode_result healed)
      | Error e, _ | _, Error e -> Alcotest.fail e.Engine.message)
    [ "extmem/manifest"; "extmem/manifest2" ]

let test_wire_limits_validated () =
  (* wire limits are checked before they reach Budget.create: each bad one
     is a typed bad request naming its field, never an "unsupported" from
     the budget, a silent no-deadline run or an overflowed memory cap *)
  with_dir @@ fun dir ->
  let cache = Cache.create ~dir () in
  let q = P.Verify { test = "sb"; family = Model.Total_store_order; window = 8 } in
  ignore (Engine.run_cached ~caps:Engine.no_caps cache q P.no_limits);
  let rejected field limits =
    let check = function
      | Error { Engine.code = P.Bad_request; message } ->
        Alcotest.(check bool) (field ^ ": " ^ message) true
          (Astring.String.is_infix ~affix:field message)
      | Error e ->
        Alcotest.failf "%s: %s: %s" field (P.error_code_to_string e.Engine.code) e.Engine.message
      | Ok _ -> Alcotest.failf "bad %s accepted" field
    in
    check (Engine.run ~caps:Engine.no_caps q limits);
    (* a cache hit does not skip the check *)
    check (Result.map fst (Engine.run_cached ~caps:Engine.no_caps cache q limits))
  in
  rejected "deadline_s" { P.no_limits with deadline_s = Some (-1.) };
  rejected "deadline_s" { P.no_limits with deadline_s = Some Float.nan };
  rejected "deadline_s" { P.no_limits with deadline_s = Some Float.infinity };
  rejected "max_work" { P.no_limits with max_work = Some (-3) };
  rejected "max_mem_mb" { P.no_limits with max_mem_mb = Some (-1) };
  rejected "max_mem_mb" { P.no_limits with max_mem_mb = Some (max_int / 1024) };
  (* the bounds themselves are accepted *)
  let largest =
    { P.deadline_s = Some 60.; max_work = Some max_int; max_mem_mb = Some (max_int lsr 20) }
  in
  (match Engine.run ~caps:Engine.no_caps q largest with
   | Ok r -> Alcotest.(check bool) "largest limits complete" true (r.P.partial = None)
   | Error e -> Alcotest.fail e.Engine.message);
  match Engine.run ~caps:Engine.no_caps q { P.no_limits with deadline_s = Some 0. } with
  | Ok r -> Alcotest.(check bool) "deadline 0 still partial" true (r.P.partial <> None)
  | Error e -> Alcotest.fail e.Engine.message

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("verify matches Litmus.check", test_verify_agrees_with_litmus_check);
      ("enumerate matches the direct enumerator", test_enumerate_matches_direct);
      ("axiom generate and solver agree", test_axiom_engines_agree);
      ("estimates deterministic per seed", test_estimates_deterministic);
      ("adaptive estimate stops at the target width", test_adaptive_estimate_stops);
      ("deadline 0 yields a typed partial", test_budget_partial);
      ("server caps clamp limitless requests", test_caps_clamp_requests);
      ("typed errors", test_typed_errors);
      ("cache key uses the structural hash", test_cache_key_name_independent);
      ("cache keys pairwise distinct", test_cache_keys_distinct);
      ("memoized cache keys agree across domains and aliases", test_cache_key_memo_consistent);
      ("incN above the bound refused at once", test_incn_bounded);
      ("differential: cached bytes = direct bytes", test_cached_bytes_identical_to_direct);
      ("extmem routing is byte-identical and resumes partials",
       test_extmem_routing_byte_identical);
      ("corrupt spill state swept and restarted", test_extmem_corrupt_spill_swept);
      ("partial results are never cached", test_partial_results_not_cached);
      ("old-layout spill state swept and restarted", test_extmem_old_manifest_swept);
      ("wire limits validated as bad requests", test_wire_limits_validated);
    ]
