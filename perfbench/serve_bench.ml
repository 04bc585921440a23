(* serve-mixed: the query trace, the cache seeding, the closed-loop load
   generator that drives a live `memrel serve`, and the traced in-process
   replay of the same trace through the functions the server composes. *)

open Memrel
module P = Service_protocol

type prep = {
  texts : string array;  (** canonical query text per key *)
  kinds : string array;  (** verify | enumerate | axiom | estimate *)
  requests : string array;  (** encoded [Query] request payload per key *)
  expected : string array;  (** direct [Engine.run] + [encode_result] per key *)
  seeded : bool array;  (** in the persisted slice the cache starts with *)
  trace : int array;  (** key index per query, in send order *)
}

let models = [ "sc"; "tso"; "pso"; "wo" ]

let family_of = function
  | "sc" -> Model.Sequential_consistency
  | "tso" -> Model.Total_store_order
  | "pso" -> Model.Partial_store_order
  | "wo" -> Model.Weak_ordering
  | m -> invalid_arg ("unknown model " ^ m)

let parse text =
  match P.parse_query text with Ok q -> q | Error m -> failwith (text ^ ": " ^ m)

let kind_of = function
  | P.Verify _ -> "verify"
  | P.Enumerate _ -> "enumerate"
  | P.Axiom _ -> "axiom"
  | P.Estimate _ -> "estimate"

(* The key space: verify, enumerate and solver-axiom queries on the corpus
   and the increment family under all four models, plus fixed-trial
   estimates whose seeds come from the workload seed. *)
let key_texts ~tiny rng =
  let tests =
    if tiny then [ "sb"; "mp"; "lb"; "inc3"; "inc4" ]
    else Litmus.names @ [ "inc3"; "inc4"; "inc5" ]
  in
  let exhaustive =
    List.concat_map
      (fun t ->
        List.concat_map
          (fun m ->
            [ Printf.sprintf "verify %s %s" t m; Printf.sprintf "enumerate %s %s" t m;
              Printf.sprintf "axiom %s %s engine=solver" t m ])
          models)
      tests
  in
  let n_est, trials = if tiny then (12, 1_000) else (60, 2_000) in
  let estimates =
    List.init n_est (fun i ->
        let seed = 1 + Rng.int rng 1_000_000 in
        let m = List.nth models (i / 3 mod 4) in
        match i mod 3 with
        | 0 ->
          Printf.sprintf "estimate settling %s gamma=%d seed=%d trials=%d" m (i mod 2) seed
            trials
        | 1 ->
          Printf.sprintf "estimate shift gammas=%d,%d,%d seed=%d trials=%d" (1 + Rng.int rng 4)
            (1 + Rng.int rng 4) (1 + Rng.int rng 4) seed trials
        | _ -> Printf.sprintf "estimate joint %s n=2 seed=%d trials=%d" m seed trials)
  in
  Array.of_list (exhaustive @ estimates)

(* Zipf(1) popularity over a seeded permutation of the keys. *)
let make_trace rng ~keys ~queries =
  let perm = Array.init keys Fun.id in
  Rng.shuffle_in_place rng perm;
  let cdf = Array.make keys 0.0 in
  let total = ref 0.0 in
  for r = 0 to keys - 1 do
    total := !total +. (1.0 /. float_of_int (r + 1));
    cdf.(r) <- !total
  done;
  Array.init queries (fun _ ->
      let u = Rng.float rng *. !total in
      let lo = ref 0 and hi = ref (keys - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if cdf.(mid) < u then lo := mid + 1 else hi := mid
      done;
      perm.(!lo))

let run_direct q =
  match Service_engine.run ~caps:Service_engine.no_caps q P.no_limits with
  | Ok r when r.P.partial = None -> P.encode_result r
  | Ok _ -> failwith (P.query_to_string q ^ ": partial result")
  | Error e -> failwith (P.query_to_string q ^ ": " ^ e.Service_engine.message)

(* The persisted slice: every inc5 key, whose computes would otherwise put
   a seed-dependent critical path into the pass wall, and one other key in
   three, rotating over verify/enumerate/axiom. *)
let persisted ~i text =
  List.mem "inc5" (String.split_on_char ' ' text) || ((i / 3) + i) mod 3 = 0

let prepare ~seed ~tiny ~queries ~file =
  let rng = Rng.create seed in
  let texts = key_texts ~tiny rng in
  let qs = Array.map parse texts in
  let trace = make_trace rng ~keys:(Array.length texts) ~queries in
  let prep =
    {
      texts;
      kinds = Array.map kind_of qs;
      requests = Array.map (fun q -> P.encode_request (P.Query (q, P.no_limits))) qs;
      expected = Array.map run_direct qs;
      seeded = Array.mapi (fun i t -> persisted ~i t) texts;
      trace;
    }
  in
  Out_channel.with_open_bin file (fun oc -> Marshal.to_channel oc prep []);
  let touched = Array.make (Array.length texts) false in
  Array.iter (fun k -> touched.(k) <- true) trace;
  Report.int "keys" (Array.length texts);
  Report.int "keys_touched" (Array.fold_left (fun n b -> if b then n + 1 else n) 0 touched);
  Report.int "seeded" (Array.fold_left (fun n b -> if b then n + 1 else n) 0 prep.seeded);
  Report.int "queries" queries;
  Report.print ()

let load file : prep = In_channel.with_open_bin file (fun ic -> Marshal.from_channel ic)

let cache_key prep k =
  match Service_engine.cache_key (parse prep.texts.(k)) with
  | Ok key -> key
  | Error e -> failwith e.Service_engine.message

(* Compute the persisted slice through the cache, as a warming client
   would, so the daemon finds ordinary disk-tier entries. The load
   generator checks them against the oracle when they are served. *)
let seed_cache prep ~dir =
  let cache = Service_cache.create ~dir () in
  Array.iteri
    (fun k seeded ->
      if seeded then
        match
          Service_cache.find_or_compute cache ~key:(cache_key prep k) ~compute:(fun () ->
              Ok (run_direct (parse prep.texts.(k)), true))
        with
        | Ok _ -> ()
        | Error () -> ())
    prep.seeded

let origins = [| P.Memory_hit; P.Disk_hit; P.Computed |]

let expected_payloads prep =
  Array.map (fun bytes -> Array.map (fun origin -> P.encode_result_response ~origin bytes) origins)
    prep.expected

let rec connect ~deadline path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX path) with
  | () -> fd
  | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT), _, _)
    when Service_clock.now_s () < deadline ->
    Unix.close fd;
    Service_clock.sleep_s 0.01;
    connect ~deadline path

let request fd payload =
  P.write_frame fd payload;
  match P.read_frame fd with
  | Ok (Some reply) -> P.decode_response reply
  | Ok None -> Error "connection closed"
  | Error m -> Error m

let server_stats fd =
  match request fd (P.encode_request P.Stats) with
  | Ok (P.Stats_reply s) -> s
  | Ok r -> failwith ("unexpected stats reply: " ^ P.render_response r)
  | Error m -> failwith m

let report_server_stats (s : P.server_stats) =
  Report.int "pool.shed" s.P.shed;
  Report.int "pool.handler_exceptions" s.P.handler_exceptions;
  Report.int "cache.disk_errors" s.P.cache.P.disk_errors

(* Closed loop: [conns] connections, each sending its next query only once
   the previous reply arrived. A connection the daemon drops mid-query
   fails that query and is reopened (counted in client.retries).
   Latencies go to [lat_file] as "<tier> <ns>" lines, tier m(emory)
   d(isk) c(omputed). *)
let load_generator prep ~socket ~conns ~lat_file =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let expected = expected_payloads prep in
  let deadline = Service_clock.now_s () +. 10.0 in
  let fds = Array.init conns (fun _ -> connect ~deadline socket) in
  (* One query before the clock starts: the daemon's first snapshot read
     forces a lazily built CRC table, and two workers forcing it at once
     raise CamlinternalLazy.Undefined. *)
  (match request fds.(0) prep.requests.(prep.trace.(0)) with
   | Ok (P.Result _) -> ()
   | Ok r -> failwith ("warm-up answered " ^ P.render_response r)
   | Error m -> failwith ("warm-up: " ^ m));
  let n = Array.length prep.trace in
  let lat = Array.make n 0 and tier = Bytes.make n '?' in
  let next = ref 0 and inflight = Array.make conns (-1) and sent = Array.make conns 0 in
  let wrong = ref 0 and retries = ref 0 in
  let rec send c =
    if !next < n then begin
      inflight.(c) <- !next;
      incr next;
      sent.(c) <- Tracer.now_ns ();
      match P.write_frame fds.(c) prep.requests.(prep.trace.(inflight.(c))) with
      | () -> ()
      | exception Unix.Unix_error _ -> reopen c
    end
    else inflight.(c) <- -1
  and reopen c =
    (try Unix.close fds.(c) with Unix.Unix_error _ -> ());
    incr retries;
    fds.(c) <- connect ~deadline:(Service_clock.now_s () +. 10.0) socket;
    send c
  in
  let t0 = Tracer.now_ns () in
  Array.iteri (fun c _ -> send c) fds;
  let rec loop () =
    let active = List.filter (fun c -> inflight.(c) >= 0) (List.init conns Fun.id) in
    if active <> [] then begin
      let ready =
        match Unix.select (List.map (fun c -> fds.(c)) active) [] [] (-1.0) with
        | r, _, _ -> r
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      List.iter
        (fun c ->
          if List.memq fds.(c) ready then begin
            let i = inflight.(c) in
            match P.read_frame fds.(c) with
            | Ok (Some payload) ->
              lat.(i) <- Tracer.now_ns () - sent.(c);
              let e = expected.(prep.trace.(i)) in
              if payload = e.(0) then Bytes.set tier i 'm'
              else if payload = e.(1) then Bytes.set tier i 'd'
              else if payload = e.(2) then Bytes.set tier i 'c'
              else incr wrong;
              send c
            | Ok None | Error _ | (exception Unix.Unix_error _) -> reopen c
          end)
        active;
      loop ()
    end
  in
  loop ();
  let wall = float_of_int (Tracer.now_ns () - t0) /. 1e9 in
  Out_channel.with_open_text lat_file (fun oc ->
      Array.iteri
        (fun i ns -> if Bytes.get tier i <> '?' then Printf.fprintf oc "%c %d\n" (Bytes.get tier i) ns)
        lat);
  let count ch = Bytes.fold_left (fun k c -> if c = ch then k + 1 else k) 0 tier in
  let answered = count 'm' + count 'd' + count 'c' in
  let answered_s =
    List.filter_map
      (fun i -> if Bytes.get tier i <> '?' then Some (float_of_int lat.(i) /. 1e9) else None)
      (List.init n Fun.id)
  in
  Report.num "wall_s" wall;
  Report.num "query_p50_s" (Report.median (Array.of_list answered_s));
  Report.int "queries" n;
  Report.int "memory_hits" (count 'm');
  Report.int "disk_hits" (count 'd');
  Report.int "computed" (count 'c');
  Report.int "wrong" !wrong;
  Report.int "unanswered" (n - answered - !wrong);
  Report.int "client.retries" !retries;
  report_server_stats (server_stats fds.(0));
  Array.iter Unix.close fds;
  Report.print ()

(* -- traced replay ------------------------------------------------------ *)

let l_decode = Tracer.layer "protocol.decode_request"
let l_key = Tracer.layer "engine.cache_key"
let l_cache = Tracer.layer "cache.find_or_compute"
let l_encode = Tracer.layer "protocol.encode_response"
let l_request = Tracer.layer "serve.request"
let l_run =
  List.map (fun k -> (k, Tracer.layer ("engine.run." ^ k)))
    [ "verify"; "enumerate"; "axiom"; "estimate" ]

type samples = {
  decode : float Queue.t;
  key : float Queue.t;
  encode : float Queue.t;
  memory_hit : float Queue.t;
  disk_hit : float Queue.t;
  store : float Queue.t;
  run : (string, float Queue.t) Hashtbl.t;
  mutable bytes : int;
  mutable wrong : int;
}

let new_samples () =
  { decode = Queue.create (); key = Queue.create (); encode = Queue.create ();
    memory_hit = Queue.create (); disk_hit = Queue.create (); store = Queue.create ();
    run = Hashtbl.create 4; bytes = 0; wrong = 0 }

let us ns = float_of_int ns /. 1e3

(* One pass of the trace through decode -> cache key -> cache (engine on a
   miss) -> response encode, exactly the composition the server runs per
   query, minus the socket and the pool. *)
let replay prep ~dir s =
  let expected = expected_payloads prep in
  let cache = Service_cache.create ~dir () in
  Array.iteri
    (fun i k ->
      Tracer.request_id := i;
      Tracer.enter l_request;
      Tracer.enter l_decode;
      let req = P.decode_request prep.requests.(k) in
      let decode_ns = Tracer.switch l_key in
      let q, limits =
        match req with Ok (P.Query (q, l)) -> (q, l) | _ -> failwith "undecodable request"
      in
      let key = Service_engine.cache_key q in
      let key_ns = Tracer.switch l_cache in
      let key = match key with Ok k -> k | Error e -> failwith e.Service_engine.message in
      let run_us = ref 0.0 in
      let r =
        Service_cache.find_or_compute cache ~key ~compute:(fun () ->
            Tracer.enter (List.assoc prep.kinds.(k) l_run);
            let r = Service_engine.run ~caps:Service_engine.no_caps q limits in
            run_us := us (Tracer.leave ());
            match r with
            | Ok res -> Ok (P.encode_result res, res.P.partial = None)
            | Error e -> Error e)
      in
      let cache_us = us (Tracer.switch l_encode) in
      let bytes, origin = match r with Ok x -> x | Error e -> failwith e.Service_engine.message in
      let payload = P.encode_result_response ~origin bytes in
      Queue.add (us (Tracer.leave ())) s.encode;
      Queue.add (us decode_ns) s.decode;
      Queue.add (us key_ns) s.key;
      (match origin with
       | P.Memory_hit -> Queue.add cache_us s.memory_hit
       | P.Disk_hit -> Queue.add cache_us s.disk_hit
       | P.Computed ->
         Queue.add cache_us s.store;
         let qs =
           match Hashtbl.find_opt s.run prep.kinds.(k) with
           | Some q -> q
           | None ->
             let q = Queue.create () in
             Hashtbl.replace s.run prep.kinds.(k) q;
             q
         in
         Queue.add (!run_us /. 1e3) qs);
      s.bytes <- s.bytes + String.length payload;
      let idx = match origin with P.Memory_hit -> 0 | P.Disk_hit -> 1 | P.Computed -> 2 in
      if payload <> expected.(k).(idx) then s.wrong <- s.wrong + 1;
      ignore (Tracer.leave ()))
    prep.trace;
  Service_cache.stats cache

let med q = Report.median (Array.of_seq (Queue.to_seq q))

let l_pass = Tracer.layer "serve.replay"
let l_pings = Tracer.layer "client.pings"
let l_ping = Tracer.layer "client.ping"
let l_snapshots = Tracer.layer "snapshot.rates"
let l_snap_w = Tracer.layer "snapshot.write"
let l_snap_r = Tracer.layer "snapshot.read"

let serve_layers =
  [ l_decode; l_key; l_cache; l_encode ] @ List.map snd l_run

(* Snapshot container throughput on the given payloads, CRC-framed through
   the Faultio facade. *)
let snapshot_rates ~dir payloads =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let files = Array.mapi (fun i _ -> Filename.concat dir (Printf.sprintf "s%05d.snap" i)) payloads in
  let (), _ =
    Tracer.traced l_snapshots (fun () ->
        Array.iteri
          (fun i p ->
            Tracer.enter l_snap_w;
            (match Snapshot.write ~file:files.(i) ~tag:"perfbench" p with
             | Ok () -> ()
             | Error e -> Report.fail "snapshot write: %s" (Snapshot.error_to_string e));
            ignore (Tracer.leave ()))
          payloads;
        Array.iteri
          (fun i p ->
            Tracer.enter l_snap_r;
            (match Snapshot.read ~file:files.(i) ~tag:"perfbench" with
             | Ok q when q = p -> ()
             | Ok _ -> Report.fail "snapshot read: payload differs"
             | Error e -> Report.fail "snapshot read: %s" (Snapshot.error_to_string e));
            ignore (Tracer.leave ()))
          payloads)
  in
  Array.iter Sys.remove files;
  let mb = float_of_int (Array.fold_left (fun n p -> n + String.length p) 0 payloads) /. 1e6 in
  Report.num "snapshot.write_mb_per_s" (mb /. Tracer.self_s l_snap_w);
  Report.num "snapshot.read_mb_per_s" (mb /. Tracer.self_s l_snap_r)

(* What share of [wall] the [explained] seconds of layer self time account
   for; the rest is reported as the workload's unattributed time. *)
let coverage ~wall ~explained =
  Report.num "trace.wall_s" wall;
  Report.num "explained_ratio" (explained /. wall);
  Report.num "unattributed_s" (wall -. explained)

let trace prep ~work ~socket ~spans ~pings =
  let seeded name =
    let dir = Filename.concat work name in
    seed_cache prep ~dir;
    dir
  in
  let fresh name =
    let d = Filename.concat work name in
    if Sys.file_exists d then failwith (d ^ " exists");
    d
  in
  let dir_u = seeded "replay_u" and dir_t = seeded "replay_t" in
  let _, wall_u = Tracer.untraced (fun () -> replay prep ~dir:dir_u (new_samples ())) in
  let s = new_samples () in
  let g0 = Gc.quick_stat () in
  let stats, wall_t = Tracer.traced l_pass (fun () -> replay prep ~dir:dir_t s) in
  let g1 = Gc.quick_stat () in
  let overhead_s = wall_t -. wall_u in
  coverage ~wall:wall_u
    ~explained:
      (List.fold_left (fun s l -> s +. Tracer.corrected_self_s ~overhead_s l) 0.0 serve_layers);
  Report.num "trace.overhead_s" overhead_s;
  Report.gc_fields g0 g1;
  if s.wrong > 0 then Report.fail "%d replayed answers differ from direct Engine.run" s.wrong;
  let n = Array.length prep.trace in
  Report.num "protocol.decode_request_us" (med s.decode);
  Report.num "protocol.encode_response_us" (med s.encode);
  Report.num "protocol.response_bytes" (float_of_int s.bytes /. float_of_int n);
  Report.num "engine.cache_key_us" (med s.key);
  List.iter
    (fun (k, _) ->
      Report.num ("engine.run_ms." ^ k)
        (match Hashtbl.find_opt s.run k with Some q -> med q | None -> 0.0))
    l_run;
  Report.num "cache.memory_hit_us" (med s.memory_hit);
  Report.num "cache.disk_hit_us" (med s.disk_hit);
  Report.num "cache.store_us" (med s.store);
  Report.num "cache.memory_hit_ratio" (float_of_int stats.P.memory_hits /. float_of_int n);
  Report.num "cache.disk_hit_ratio" (float_of_int stats.P.disk_hits /. float_of_int n);
  (* solver effort on the trace's distinct axiom keys *)
  let decisions = ref 0 and conflicts = ref 0 in
  Array.iteri
    (fun k text ->
      match parse text with
      | P.Axiom { test; family; window; _ } when Array.mem k prep.trace ->
        let r = Axiom_solver.run ~window (Litmus.find test) family in
        decisions := !decisions + r.Axiom_solver.stats.Axiom_solver.decisions;
        conflicts := !conflicts + r.Axiom_solver.stats.Axiom_solver.conflicts
      | _ -> ())
    prep.texts;
  Report.int "solver.decisions" !decisions;
  Report.int "solver.conflicts" !conflicts;
  snapshot_rates ~dir:(fresh "snap") prep.expected;
  (* socket + framing + pool handoff with no engine work *)
  let fd = connect ~deadline:(Service_clock.now_s () +. 10.0) socket in
  let rtt = Array.make pings 0.0 in
  let ping = P.encode_request P.Ping in
  let (), _ =
    Tracer.traced l_pings (fun () ->
        for i = 0 to pings - 1 do
          Tracer.request_id := i;
          Tracer.enter l_ping;
          (match request fd ping with
           | Ok P.Pong -> ()
           | Ok r -> Report.fail "ping answered %s" (P.render_response r)
           | Error m -> Report.fail "ping: %s" m);
          rtt.(i) <- us (Tracer.leave ())
        done)
  in
  Report.num "client.ping_rtt_us" (Report.median rtt);
  report_server_stats (server_stats fd);
  Unix.close fd;
  Tracer.write_jsonl spans;
  Report.print_with_failures ()
