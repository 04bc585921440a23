let default_chunk = 4096

let default_checkpoint_every = 16

(* fixed policy: progress every 16 merged chunks, three attempts per chunk *)
let report_every = 16

let max_attempts = 3

let default_jobs () = max 1 (Domain.recommended_domain_count () - 1)

(* explicit jobs values must be positive; only the absent default is
   resolved automatically *)
let resolve_jobs = function
  | None -> default_jobs ()
  | Some j -> if j <= 0 then invalid_arg "Par: jobs must be positive" else j

(* Run [f w] on [workers] domains with [w = 0 .. workers - 1], worker 0 on
   the calling domain. Joins every spawned domain before re-raising any
   exception, so no domain is ever leaked. *)
let fan_out ~workers f =
  if workers <= 1 then f 0
  else begin
    let spawned = List.init (workers - 1) (fun w -> Domain.spawn (fun () -> f (w + 1))) in
    let here = try Ok (f 0) with e -> Error e in
    let joined = List.map (fun d -> try Ok (Domain.join d) with e -> Error e) spawned in
    List.iter (function Error e -> raise e | Ok () -> ()) (here :: joined)
  end

type 'a outcome = {
  value : 'a;
  trials_done : int;
  chunks_done : int;
  target_met : bool;
  exhausted : Budget.exhaustion option;
  chunks_total : int;
  chunks_resumed : int;
  retries : int;
  worker_failures : int;
  checkpoints_written : int;
}

type fault = Crash | Wedge

exception Injected_crash of { chunk : int; attempt : int }

exception Retries_exhausted of { chunk : int; attempts : int; last_error : string }

exception Invalid_snapshot of string

(* -- checkpoints ----------------------------------------------------------

   The payload is [(header, chunks)]: the schedule key and the writer's
   identity, plus every completed chunk's accumulator, each marshalled on
   its own. Chunk accumulators are pure functions of (base, id), so this is
   the entire state of a run. The header and the chunk table are plain
   data, so they decode safely whoever wrote them; an accumulator is
   decoded only after the header matched, which is what keeps a snapshot
   of one estimator from being unpacked as another's accumulator type. *)

type header = { identity : string; base : int64; trials : int; chunk : int }

let snapshot_tag = "par/run"

let save_checkpoint ~file header saved =
  let chunks = Array.of_list saved in
  Array.sort (fun (a, _) (b, _) -> compare a b) chunks;
  match Snapshot.write ~file ~tag:snapshot_tag (Marshal.to_string (header, chunks) []) with
  | Ok () -> ()
  | Error e ->
    raise (Invalid_snapshot ("checkpoint write failed: " ^ Snapshot.error_to_string e))

let load_checkpoint ~file ~n_chunks (live : header) =
  match Snapshot.read ~file ~tag:snapshot_tag with
  | Error e -> raise (Invalid_snapshot (Snapshot.error_to_string e))
  | Ok payload ->
    let (cp : header), (chunks : (int * string) array) =
      try Marshal.from_string payload 0
      with _ -> raise (Invalid_snapshot "undecodable checkpoint payload")
    in
    let reject fmt = Printf.ksprintf (fun m -> raise (Invalid_snapshot m)) fmt in
    if cp.identity <> live.identity then
      reject "checkpoint was written by %S, this run is %S" cp.identity live.identity;
    if not (Int64.equal cp.base live.base) then
      reject "checkpoint was taken from a different RNG stream (same seed required to resume)";
    if cp.trials <> live.trials then
      reject "checkpoint is for trials=%d, this run asks for trials=%d" cp.trials live.trials;
    if cp.chunk <> live.chunk then
      reject "checkpoint is for chunk=%d, this run asks for chunk=%d" cp.chunk live.chunk;
    let seen = Array.make n_chunks false in
    Array.iter
      (fun (id, _) ->
        if id < 0 || id >= n_chunks || seen.(id) then
          reject "checkpoint chunk ids out of range or duplicated";
        seen.(id) <- true)
      chunks;
    chunks

(* -- the scheduler ------------------------------------------------------- *)

let run ?jobs ?(chunk = default_chunk) ?budget ?stop ?report ?checkpoint
    ?(checkpoint_every = default_checkpoint_every) ?resume ?(identity = "") ?fault ~trials
    ~init ~worker ~merge rng =
  if trials <= 0 then invalid_arg "Par.run: trials must be positive";
  if chunk <= 0 then invalid_arg "Par.run: chunk must be positive";
  if checkpoint_every <= 0 then invalid_arg "Par.run: checkpoint_every must be positive";
  let jobs = resolve_jobs jobs in
  (* one draw from the caller's generator, independent of [jobs], keys the
     whole schedule: chunk [id] always runs on [Rng.substream base id]. A
     resumed run re-derives the same [base] from the same seed. *)
  let base = Rng.bits64 rng in
  let n_chunks = (trials + chunk - 1) / chunk in
  let chunk_trials id = min chunk (trials - (id * chunk)) in
  let header = { identity; base; trials; chunk } in
  (* Scheduler state, guarded by [mutex]: the lock's happens-before is what
     lets the merging (or checkpointing) domain read accumulators other
     domains built. [completed] holds a completed chunk until the prefix
     reaches it, so it only grows with how far chunks finish out of order;
     [saved] holds every completed chunk, marshalled before any merge can
     mutate it, for the checkpoints. *)
  let mutex = Mutex.create () in
  let completed = Hashtbl.create 16 in
  let saved = ref [] in
  let since_checkpoint = ref 0 and checkpoints = ref 0 in
  let prefix = ref 0 and value = ref None and trials_done = ref 0 in
  let target_met = ref false and cause = ref None and fatal = ref None in
  (* wedged chunks: claimed by a worker that then stopped responding, with
     the attempts already burned *)
  let abandoned = ref [] in
  let halt = Atomic.make false in
  let retries = Atomic.make 0 and failures = Atomic.make 0 in
  let write_checkpoint_locked () =
    Option.iter
      (fun file ->
        save_checkpoint ~file header !saved;
        incr checkpoints;
        since_checkpoint := 0)
      checkpoint
  in
  (* merge the completed chunks that extend the prefix; the stop predicate
     and the report see each extension, so the stopping chunk is the least
     [k] whose prefix satisfies [stop] whatever order chunks complete in *)
  let rec advance_locked () =
    if (not !target_met) && !prefix < n_chunks then
      match Hashtbl.find_opt completed !prefix with
      | None -> ()
      | Some acc ->
        Hashtbl.remove completed !prefix;
        let v = match !value with None -> acc | Some v -> merge v acc in
        value := Some v;
        trials_done := !trials_done + chunk_trials !prefix;
        incr prefix;
        (match stop with
         | Some f when f ~trials:!trials_done v ->
           target_met := true;
           Atomic.set halt true
         | _ -> ());
        (match report with
         | Some f when !prefix mod report_every = 0 && not !target_met -> f ~trials:!trials_done v
         | _ -> ());
        advance_locked ()
  in
  (* chunks loaded from the resume checkpoint; read-only once workers run *)
  let resumed = Hashtbl.create 16 in
  Option.iter
    (fun file ->
      let loaded = load_checkpoint ~file ~n_chunks header in
      Array.iter
        (fun (id, bytes) ->
          Hashtbl.replace resumed id ();
          Hashtbl.replace completed id
            (try Marshal.from_string bytes 0
             with _ -> raise (Invalid_snapshot "undecodable checkpoint payload")))
        loaded;
      saved := Array.to_list loaded)
    resume;
  advance_locked ();
  let record id acc =
    let bytes = if Option.is_some checkpoint then Marshal.to_string acc [] else "" in
    Mutex.protect mutex (fun () ->
        if Option.is_some checkpoint then saved := (id, bytes) :: !saved;
        Hashtbl.replace completed id acc;
        Option.iter (fun b -> Budget.spend b 1) budget;
        incr since_checkpoint;
        if !since_checkpoint >= checkpoint_every then write_checkpoint_locked ();
        advance_locked ())
  in
  let fail e =
    Mutex.protect mutex (fun () -> if Option.is_none !fatal then fatal := Some e);
    Atomic.set halt true
  in
  (* checked before every chunk claim; the first cause seen is kept *)
  let budget_tripped () =
    match Option.bind budget Budget.check with
    | None -> false
    | Some c ->
      Mutex.protect mutex (fun () -> if Option.is_none !cause then cause := Some c);
      Atomic.set halt true;
      true
  in
  let run_chunk accumulate id =
    let r = Rng.substream base id in
    let acc = ref (init ()) in
    for _ = 1 to chunk_trials id do
      acc := accumulate !acc r
    done;
    !acc
  in
  (* One attempt of chunk [id]; a failed attempt rebuilds the worker, so
     scratch a trial left half-updated cannot leak into the replay, and
     replays the same substream. *)
  let rec attempt accumulate id n =
    let injected = match fault with None -> None | Some f -> f ~chunk:id ~attempt:n in
    if injected = Some Wedge then begin
      Atomic.incr failures;
      `Wedged n
    end
    else
      match
        if injected = Some Crash then raise (Injected_crash { chunk = id; attempt = n });
        run_chunk !accumulate id
      with
      | acc -> `Done acc
      | exception e ->
        Atomic.incr failures;
        if n >= max_attempts then
          let last_error = Printexc.to_string e in
          `Failed (Retries_exhausted { chunk = id; attempts = n; last_error })
        else begin
          Atomic.incr retries;
          accumulate := worker ();
          attempt accumulate id (n + 1)
        end
  in
  (* the next chunk to run, unless the run has stopped; the budget is
     checked only when there is a chunk left to spend it on *)
  let next = Atomic.make 0 in
  let rec claim () =
    if Atomic.get halt then None
    else
      let id = Atomic.fetch_and_add next 1 in
      if id >= n_chunks then None
      else if Hashtbl.mem resumed id then claim ()
      else if budget_tripped () then None
      else Some id
  in
  let work _ =
    try
      let accumulate = ref (worker ()) in
      let rec loop () =
        match claim () with
        | None -> ()
        | Some id -> (
          match attempt accumulate id 1 with
          | `Done acc ->
            record id acc;
            loop ()
          | `Wedged n -> Mutex.protect mutex (fun () -> abandoned := (id, n) :: !abandoned)
          | `Failed e -> fail e)
      in
      loop ()
    with e -> fail e
  in
  let pending = n_chunks - Hashtbl.length resumed in
  if pending > 0 && not (Atomic.get halt) then fan_out ~workers:(min jobs pending) work;
  Option.iter raise !fatal;
  (* Recovery on the calling domain (it survived the join): re-run chunks
     whose worker wedged away, each continuing its attempt count, then drain
     the chunks those workers never claimed. The calling domain cannot
     wedge away, so a simulated wedge here burns an attempt like a crash. *)
  if !abandoned <> [] then begin
    let accumulate = ref (worker ()) in
    let recover id burned =
      if burned > 0 then Atomic.incr retries;
      let rec go n =
        match attempt accumulate id n with
        | `Done acc -> record id acc
        | `Failed e -> raise e
        | `Wedged n when n >= max_attempts ->
          let last_error = "simulated worker wedge" in
          raise (Retries_exhausted { chunk = id; attempts = n; last_error })
        | `Wedged n ->
          Atomic.incr retries;
          go (n + 1)
      in
      go (burned + 1)
    in
    List.iter
      (fun (id, burned) -> if not (Atomic.get halt || budget_tripped ()) then recover id burned)
      (List.sort compare !abandoned);
    let rec drain () = Option.iter (fun id -> recover id 0; drain ()) (claim ()) in
    drain ()
  end;
  (* final checkpoint: flush everything completed, so a later resume picks
     up exactly here (a snapshot of a finished run resumes to a no-op) *)
  if Option.is_some checkpoint then Mutex.protect mutex write_checkpoint_locked;
  {
    value = (match !value with Some v -> v | None -> init ());
    trials_done = !trials_done;
    chunks_done = !prefix;
    target_met = !target_met;
    exhausted =
      (match (!cause, budget) with Some c, Some b -> Some (Budget.exhaustion b c) | _ -> None);
    chunks_total = n_chunks;
    chunks_resumed = Hashtbl.length resumed;
    retries = Atomic.get retries;
    worker_failures = Atomic.get failures;
    checkpoints_written = !checkpoints;
  }

let count ?jobs ?chunk ?budget ?target_width ?report ?checkpoint ?checkpoint_every ?resume
    ?identity ?fault ~trials ~worker rng =
  let stop =
    Option.map
      (fun w ->
        if not (w > 0.0) then invalid_arg "Par.count: target_width must be positive";
        fun ~trials successes ->
          let ci = Stats.wilson_ci ~successes ~trials ~z:1.96 in
          ci.Stats.hi -. ci.Stats.lo <= w)
      target_width
  in
  let report = Option.map (fun f ~trials successes -> f ~trials ~successes) report in
  run ?jobs ?chunk ?budget ?stop ?report ?checkpoint ?checkpoint_every ?resume ?identity ?fault
    ~trials
    ~init:(fun () -> 0)
    ~worker:(fun () ->
      let f = worker () in
      fun acc r -> if f r then acc + 1 else acc)
    ~merge:( + ) rng

let map_array ?jobs f a =
  let jobs = resolve_jobs jobs in
  let n = Array.length a in
  if n = 0 then [||]
  else begin
    let workers = min jobs n in
    if workers = 1 then Array.map f a
    else begin
      let out = Array.make n None in
      fan_out ~workers (fun w ->
          let i = ref w in
          while !i < n do
            out.(!i) <- Some (f a.(!i));
            i := !i + workers
          done);
      Array.map (function Some v -> v | None -> assert false) out
    end
  end

let map_list ?jobs f l = Array.to_list (map_array ?jobs f (Array.of_list l))
