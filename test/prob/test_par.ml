module Rng = Memrel_prob.Rng
module Par = Memrel_prob.Par
module Budget = Memrel_prob.Budget
module Stats = Memrel_prob.Stats

(* a deliberately order-sensitive accumulator: float sum of Rng.float draws;
   any schedule change shows up in the low bits *)
let float_sum_run ?jobs ?chunk ?budget ?checkpoint ?checkpoint_every ?resume ?identity ?fault
    ~trials seed =
  Par.run ?jobs ?chunk ?budget ?checkpoint ?checkpoint_every ?resume ?identity ?fault ~trials
    ~init:(fun () -> 0.0)
    ~worker:(fun () acc r -> acc +. Rng.float r)
    ~merge:( +. ) (Rng.create seed)

let float_sum ?jobs ?chunk ~trials seed = (float_sum_run ?jobs ?chunk ~trials seed).Par.value

let bits f = Int64.bits_of_float f

(* a Bernoulli(0.3) worker for the counting paths *)
let coin () r = Rng.float r < 0.3

let test_run_jobs_invariant () =
  (* bit-identical across jobs, including trial counts that don't divide the
     chunk size and chunk counts below/above the worker count *)
  List.iter
    (fun (trials, chunk) ->
      let reference = float_sum ~jobs:1 ~chunk ~trials 42 in
      List.iter
        (fun jobs ->
          let v = float_sum ~jobs ~chunk ~trials 42 in
          Alcotest.(check bool)
            (Printf.sprintf "trials=%d chunk=%d jobs=%d: %h = %h" trials chunk jobs v reference)
            true
            (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float reference)))
        [ 2; 3; 4; 7 ])
    [ (10_000, 256); (1000, 999); (5, 2); (4096, 4096); (100, 4096) ]

let test_run_default_jobs_matches_one () =
  let a = float_sum ~trials:20_000 7 in
  let b = float_sum ~jobs:1 ~trials:20_000 7 in
  Alcotest.(check bool) "default jobs = jobs:1 bitwise" true
    (Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b))

let test_run_advances_caller_rng_uniformly () =
  (* the engine must consume exactly one bits64 draw from the caller's
     generator, regardless of jobs/trials/chunk, so downstream draws stay
     reproducible *)
  let next_after f =
    let rng = Rng.create 11 in
    ignore (f rng);
    Rng.bits64 rng
  in
  let reference = next_after (fun rng -> ignore (Rng.bits64 rng)) in
  List.iter
    (fun (jobs, trials, chunk) ->
      let v =
        next_after (fun rng ->
            ignore (Par.count ~jobs ~chunk ~trials ~worker:(fun () r -> Rng.bool r) rng))
      in
      Alcotest.(check int64)
        (Printf.sprintf "jobs=%d trials=%d chunk=%d" jobs trials chunk)
        reference v)
    [ (1, 100, 64); (4, 100, 64); (4, 10_000, 256); (2, 3, 1) ]

let test_count_matches_manual () =
  (* jobs:1 chunked count equals a hand-rolled loop over the same substreams *)
  let trials = 10_000 and chunk = 512 in
  let got =
    (Par.count ~jobs:3 ~chunk ~trials ~worker:(fun () r -> Rng.bernoulli r 0.3) (Rng.create 5))
      .Par.value
  in
  let base = Rng.bits64 (Rng.create 5) in
  let expected = ref 0 in
  let n_chunks = (trials + chunk - 1) / chunk in
  for id = 0 to n_chunks - 1 do
    let r = Rng.substream base id in
    for _ = 1 to min chunk (trials - (id * chunk)) do
      if Rng.bernoulli r 0.3 then incr expected
    done
  done;
  Alcotest.(check int) "count = manual chunk loop" !expected got;
  (* and the rate is what it should be *)
  Alcotest.(check bool) "rate ~ 0.3" true
    (Float.abs ((float_of_int got /. float_of_int trials) -. 0.3) < 0.02)

let test_histogram_accumulator_merge () =
  (* the estimate-style accumulator (hashtable + merge by addition) must be
     jobs-invariant and conserve mass *)
  let run jobs =
    (Par.run ~jobs ~chunk:128 ~trials:30_000
      ~init:(fun () -> Hashtbl.create 16)
      ~worker:(fun () h r ->
        let k = Rng.geometric_half r in
        Hashtbl.replace h k (1 + Option.value ~default:0 (Hashtbl.find_opt h k));
        h)
      ~merge:(fun a b ->
        Hashtbl.iter
          (fun k c -> Hashtbl.replace a k (c + Option.value ~default:0 (Hashtbl.find_opt a k)))
          b;
        a)
      (Rng.create 13))
      .Par.value
  in
  let sorted h =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])
  in
  let h1 = sorted (run 1) and h4 = sorted (run 4) in
  Alcotest.(check (list (pair int int))) "histogram jobs:1 = jobs:4" h1 h4;
  Alcotest.(check int) "mass conserved" 30_000 (List.fold_left (fun a (_, c) -> a + c) 0 h1)

let test_substream_deterministic_and_distinct () =
  let a = Rng.substream 99L 5 and b = Rng.substream 99L 5 in
  for _ = 1 to 50 do
    Alcotest.(check int64) "same (base, i), same stream" (Rng.bits64 a) (Rng.bits64 b)
  done;
  (* adjacent indices (the parallel engine's hot case) share no outputs *)
  let a = Rng.substream 99L 5 and b = Rng.substream 99L 6 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Int64.equal (Rng.bits64 a) (Rng.bits64 b) then incr same
  done;
  Alcotest.(check int) "adjacent substreams unrelated" 0 !same

let test_substream_uniformity () =
  (* pooled draws across many substreams must still be uniform — the same
     chi-squared check Rng.int passes for a single stream *)
  let k = 6 and per_stream = 1000 and streams = 60 in
  let counts = Array.make k 0 in
  for i = 0 to streams - 1 do
    let r = Rng.substream 2024L i in
    for _ = 1 to per_stream do
      let v = Rng.int r k in
      counts.(v) <- counts.(v) + 1
    done
  done;
  let n = per_stream * streams in
  let expected = float_of_int n /. float_of_int k in
  let chi2 =
    Array.fold_left
      (fun acc c -> acc +. (((float_of_int c -. expected) ** 2.0) /. expected))
      0.0 counts
  in
  (* 5 dof, 99.9% critical value ~ 20.5 *)
  Alcotest.(check bool) (Printf.sprintf "chi2=%.2f < 20.5" chi2) true (chi2 < 20.5)

let test_map_list_order_and_jobs () =
  let l = List.init 37 (fun i -> i) in
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "map_list jobs:1 = List.map" (List.map f l)
    (Par.map_list ~jobs:1 f l);
  Alcotest.(check (list int)) "map_list jobs:4 preserves order" (List.map f l)
    (Par.map_list ~jobs:4 f l);
  Alcotest.(check (list int)) "empty list" [] (Par.map_list ~jobs:4 f [])

let test_map_array_exception_propagates () =
  Alcotest.check_raises "worker exception resurfaces" Exit (fun () ->
      ignore (Par.map_list ~jobs:2 (fun x -> if x = 3 then raise Exit else x) [ 1; 2; 3; 4 ]))

let test_guards () =
  let rng = Rng.create 1 in
  let always () _ = true in
  Alcotest.check_raises "trials 0" (Invalid_argument "Par.run: trials must be positive")
    (fun () -> ignore (Par.count ~trials:0 ~worker:always rng));
  Alcotest.check_raises "chunk 0" (Invalid_argument "Par.run: chunk must be positive")
    (fun () -> ignore (Par.count ~chunk:0 ~trials:10 ~worker:always rng));
  Alcotest.(check bool) "default_jobs >= 1" true (Par.default_jobs () >= 1);
  (* explicit nonsensical jobs values are rejected, not silently clamped *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs %d" jobs)
        (Invalid_argument "Par: jobs must be positive")
        (fun () -> ignore (Par.count ~jobs ~trials:10 ~worker:always rng)))
    [ 0; -1; -7 ];
  Alcotest.check_raises "map_array jobs 0" (Invalid_argument "Par: jobs must be positive")
    (fun () -> ignore (Par.map_list ~jobs:0 Fun.id [ 1 ]));
  Alcotest.check_raises "checkpoint_every 0"
    (Invalid_argument "Par.run: checkpoint_every must be positive") (fun () ->
      ignore (Par.count ~checkpoint_every:0 ~trials:10 ~worker:always rng));
  Alcotest.check_raises "target_width 0"
    (Invalid_argument "Par.count: target_width must be positive") (fun () ->
      ignore (Par.count ~target_width:0.0 ~trials:10 ~worker:always rng));
  (* an exception from building a worker (argument checks) propagates
     unchanged, at any jobs count *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "worker construction, jobs %d" jobs)
        (Invalid_argument "bad parameter")
        (fun () ->
          ignore
            (Par.count ~jobs ~chunk:16 ~trials:100
               ~worker:(fun () -> invalid_arg "bad parameter")
               rng)))
    [ 1; 4 ]

(* -- budgets and checkpoints --------------------------------------------- *)

let with_tmp f =
  let file = Filename.temp_file "memrel_par" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

let test_governed_equals_plain_run () =
  (* a generous budget and a checkpoint file change nothing: the result is
     the plain jobs:1 run bit-for-bit, at every jobs count *)
  List.iter
    (fun (trials, chunk) ->
      let reference = float_sum ~jobs:1 ~chunk ~trials 42 in
      List.iter
        (fun jobs ->
          with_tmp @@ fun file ->
          let g =
            float_sum_run ~jobs ~chunk ~trials ~budget:(Budget.create ~max_work:1_000_000 ())
              ~checkpoint:file 42
          in
          Alcotest.(check bool)
            (Printf.sprintf "trials=%d chunk=%d jobs=%d" trials chunk jobs)
            true
            (Int64.equal (bits g.Par.value) (bits reference));
          Alcotest.(check bool) "complete" true (g.Par.exhausted = None);
          Alcotest.(check int) "all trials done" trials g.Par.trials_done;
          Alcotest.(check int) "all chunks done" g.Par.chunks_total g.Par.chunks_done;
          Alcotest.(check bool) "checkpointed" true (g.Par.checkpoints_written >= 1);
          Alcotest.(check int) "no retries" 0 g.Par.retries)
        [ 1; 2; 4 ])
    [ (10_000, 256); (1000, 999); (5, 2) ]

let test_governed_advances_caller_rng_uniformly () =
  let next_after f =
    let rng = Rng.create 11 in
    f rng;
    Rng.bits64 rng
  in
  let reference = next_after (fun rng -> ignore (Rng.bits64 rng)) in
  let v =
    with_tmp @@ fun file ->
    next_after (fun rng ->
        ignore
          (Par.count ~jobs:2 ~chunk:64 ~budget:(Budget.create ~max_work:5 ()) ~checkpoint:file
             ~trials:1000 ~worker:(fun () r -> Rng.bool r) rng))
  in
  Alcotest.(check int64) "one draw, whatever the options" reference v

let test_work_cap_partial () =
  (* a work cap of k chunks yields a partial result covering exactly the
     chunks completed before the cap, each a bit-exact replay *)
  let trials = 10_000 and chunk = 256 in
  let budget = Budget.create ~max_work:5 () in
  let g = float_sum_run ~jobs:1 ~chunk ~budget ~trials 42 in
  (match g.Par.exhausted with
   | Some e -> Alcotest.(check bool) "cause Work" true (e.Budget.cause = Budget.Work)
   | None -> Alcotest.fail "expected exhaustion");
  Alcotest.(check int) "5 chunks done" 5 g.Par.chunks_done;
  Alcotest.(check int) "trials_done matches" (5 * chunk) g.Par.trials_done;
  (* the partial value is the prefix sum over substreams 0..4 *)
  let base = Rng.bits64 (Rng.create 42) in
  let expected = ref 0.0 in
  for id = 0 to 4 do
    let r = Rng.substream base id in
    for _ = 1 to chunk do
      expected := !expected +. Rng.float r
    done
  done;
  Alcotest.(check bool) "partial value = prefix chunks" true
    (Int64.equal (bits g.Par.value) (bits !expected));
  (* a cap that exactly covers the schedule is not an exhaustion *)
  List.iter
    (fun jobs ->
      let g = float_sum_run ~jobs ~chunk ~budget:(Budget.create ~max_work:40 ()) ~trials 42 in
      Alcotest.(check bool) (Printf.sprintf "jobs %d: exact cap completes" jobs) true
        (g.Par.exhausted = None && g.Par.trials_done = trials))
    [ 1; 4 ]

let test_zero_budget_partial_is_empty () =
  let budget = Budget.create ~max_work:0 () in
  let g = float_sum_run ~jobs:4 ~chunk:64 ~budget ~trials:10_000 42 in
  Alcotest.(check bool) "exhausted" true (g.Par.exhausted <> None);
  Alcotest.(check int) "nothing done" 0 g.Par.trials_done;
  Alcotest.(check bool) "init value" true (g.Par.value = 0.0)

let checkpoint_roundtrip_for ~jobs () =
  (* simulate kill + resume: a budget-limited first run checkpoints, a
     resumed run finishes; result and sample counts must be bit-identical to
     an uninterrupted run *)
  let trials = 20_000 and chunk = 256 in
  with_tmp @@ fun file ->
  let reference = float_sum ~jobs ~chunk ~trials 42 in
  let first =
    float_sum_run ~jobs ~chunk ~trials
      ~budget:(Budget.create ~max_work:13 ())
      ~checkpoint:file ~checkpoint_every:4 42
  in
  Alcotest.(check bool) "first run is partial" true (first.Par.exhausted <> None);
  Alcotest.(check bool) "snapshots were written" true (first.Par.checkpoints_written > 0);
  let resumed = float_sum_run ~jobs ~chunk ~trials ~resume:file 42 in
  Alcotest.(check bool) "resumed = uninterrupted (bitwise)" true
    (Int64.equal (bits resumed.Par.value) (bits reference));
  Alcotest.(check int) "all trials accounted" trials resumed.Par.trials_done;
  Alcotest.(check int) "resumed chunk count" first.Par.chunks_done resumed.Par.chunks_resumed;
  Alcotest.(check bool) "resume is complete" true (resumed.Par.exhausted = None)

let test_checkpoint_roundtrip_jobs1 () = checkpoint_roundtrip_for ~jobs:1 ()

let test_checkpoint_roundtrip_jobs4 () = checkpoint_roundtrip_for ~jobs:4 ()

let test_resume_from_finished_checkpoint_is_noop () =
  with_tmp @@ fun file ->
  let full = float_sum_run ~jobs:2 ~chunk:512 ~trials:10_000 ~checkpoint:file 42 in
  let resumed = float_sum_run ~jobs:2 ~chunk:512 ~trials:10_000 ~resume:file 42 in
  Alcotest.(check bool) "same value" true
    (Int64.equal (bits resumed.Par.value) (bits full.Par.value));
  Alcotest.(check int) "nothing re-run" 0 (resumed.Par.chunks_done - resumed.Par.chunks_resumed)

let expect_invalid_snapshot name f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_snapshot" name
  | exception Par.Invalid_snapshot _ -> ()

let test_resume_rejects_damaged_snapshots () =
  with_tmp @@ fun file ->
  let run ?(seed = 42) ?(trials = 10_000) ?(chunk = 256) ?checkpoint ?resume () =
    float_sum_run ~jobs:1 ~chunk ~trials ?checkpoint ?resume seed
  in
  ignore (run ~checkpoint:file ());
  let original = In_channel.with_open_bin file In_channel.input_all in
  let rewrite s = Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s) in
  (* truncation *)
  rewrite (String.sub original 0 (String.length original - 7));
  expect_invalid_snapshot "truncated" (fun () -> run ~resume:file ());
  (* corruption (payload bit flip) *)
  let corrupt = Bytes.of_string original in
  let last = Bytes.length corrupt - 1 in
  Bytes.set corrupt last (Char.chr (Char.code (Bytes.get corrupt last) lxor 0x40));
  rewrite (Bytes.to_string corrupt);
  expect_invalid_snapshot "corrupted" (fun () -> run ~resume:file ());
  (* wrong format version *)
  let versioned = Bytes.of_string original in
  Bytes.set versioned 11 (Char.chr (Char.code (Bytes.get versioned 11) + 1));
  rewrite (Bytes.to_string versioned);
  expect_invalid_snapshot "wrong version" (fun () -> run ~resume:file ());
  (* pristine snapshot, mismatched run parameters *)
  rewrite original;
  expect_invalid_snapshot "different seed" (fun () -> run ~seed:43 ~resume:file ());
  expect_invalid_snapshot "different trials" (fun () -> run ~trials:9_999 ~resume:file ());
  expect_invalid_snapshot "different chunk" (fun () -> run ~chunk:128 ~resume:file ());
  (* and the pristine file still resumes fine *)
  ignore (run ~resume:file ())

let test_resume_rejects_other_estimator () =
  (* a snapshot records which trial function wrote it: resuming under
     another identity is refused before any accumulator is decoded, even
     when seed, trials and chunk all match and the accumulator types
     differ (an int count here, a float sum there) *)
  with_tmp @@ fun file ->
  ignore
    (Par.count ~jobs:1 ~chunk:256 ~trials:10_000 ~checkpoint:file ~identity:"coin p=0.3"
       ~worker:coin (Rng.create 42));
  (match float_sum_run ~jobs:1 ~chunk:256 ~trials:10_000 ~resume:file ~identity:"sum" 42 with
   | _ -> Alcotest.fail "expected Invalid_snapshot"
   | exception Par.Invalid_snapshot msg ->
     Alcotest.(check bool) ("one-line message: " ^ msg) false (String.contains msg '\n');
     Alcotest.(check bool) "names both identities" true
       (Astring.String.is_infix ~affix:"coin p=0.3" msg
        && Astring.String.is_infix ~affix:"\"sum\"" msg));
  (* the same identity resumes *)
  let again =
    Par.count ~jobs:1 ~chunk:256 ~trials:10_000 ~resume:file ~identity:"coin p=0.3"
      ~worker:coin (Rng.create 42)
  in
  Alcotest.(check int) "resumed everything" again.Par.chunks_total again.Par.chunks_resumed;
  (* a snapshot under an earlier engine tag is refused by the container *)
  (match Memrel_prob.Snapshot.write ~file ~tag:"par/chunks" "old payload" with
   | Ok () -> ()
   | Error e -> Alcotest.fail (Memrel_prob.Snapshot.error_to_string e));
  expect_invalid_snapshot "old engine tag" (fun () ->
      Par.count ~jobs:1 ~chunk:256 ~trials:10_000 ~resume:file ~identity:"coin p=0.3"
        ~worker:coin (Rng.create 42))

(* -- fault injection ----------------------------------------------------- *)

let fault_on ~kind ~chunks ~attempts_below ~chunk:id ~attempt =
  if List.mem id chunks && attempt <= attempts_below then Some kind else None

let fault_equal_baseline name ~jobs ~fault ~expect_retries =
  let trials = 10_000 and chunk = 256 in
  let baseline = float_sum ~jobs:1 ~chunk ~trials 42 in
  let g = float_sum_run ~jobs ~chunk ~trials ~fault 42 in
  Alcotest.(check bool) (name ^ ": value = baseline (bitwise)") true
    (Int64.equal (bits g.Par.value) (bits baseline));
  Alcotest.(check bool) (name ^ ": complete") true (g.Par.exhausted = None);
  Alcotest.(check int) (name ^ ": all trials") trials g.Par.trials_done;
  Alcotest.(check int) (name ^ ": retries") expect_retries g.Par.retries;
  Alcotest.(check bool) (name ^ ": failures recorded") true
    (g.Par.worker_failures >= expect_retries)

let test_crash_first_chunk () =
  List.iter
    (fun jobs ->
      fault_equal_baseline
        (Printf.sprintf "crash chunk 0, jobs %d" jobs)
        ~jobs
        ~fault:(fault_on ~kind:Par.Crash ~chunks:[ 0 ] ~attempts_below:1)
        ~expect_retries:1)
    [ 1; 4 ]

let test_crash_middle_chunk () =
  List.iter
    (fun jobs ->
      fault_equal_baseline
        (Printf.sprintf "crash chunk 20, jobs %d" jobs)
        ~jobs
        ~fault:(fault_on ~kind:Par.Crash ~chunks:[ 20 ] ~attempts_below:1)
        ~expect_retries:1)
    [ 1; 4 ]

(* the engine's robustness paths on a real kernel (the TSO settling
   window, m = 48): a checkpointed run, a run stopped half-way by a work
   cap and resumed from its snapshot, and a run whose chunks 0 and 7 crash
   once, all count exactly what the bare run counts *)
let test_settling_checkpoint_resume_crash () =
  let trials = 60_000 and chunk = 2048 in
  let chunks = (trials + chunk - 1) / chunk in
  let worker () =
    let s = Memrel_settling.Scratch.create ~m:48 (Memrel_memmodel.Model.tso ()) in
    fun r -> Memrel_settling.Scratch.sample_gamma s r >= 1
  in
  let count ?budget ?checkpoint ?resume ?fault () =
    Par.count ~jobs:4 ~chunk ?budget ?checkpoint ~checkpoint_every:4 ?resume ?fault ~trials ~worker
      (Rng.create 20110606)
  in
  let bare = (count ()).Par.value in
  with_tmp @@ fun snap ->
  let checkpointed = count ~checkpoint:snap () in
  Alcotest.(check int) "checkpointed = bare" bare checkpointed.Par.value;
  Alcotest.(check bool) "snapshots written" true (checkpointed.Par.checkpoints_written > 0);
  let partial = count ~budget:(Budget.create ~max_work:(chunks / 2) ()) ~checkpoint:snap () in
  Alcotest.(check bool) "work cap stops the run" true (partial.Par.exhausted <> None);
  let resumed = count ~resume:snap () in
  Alcotest.(check int) "resume skips the completed chunks" partial.Par.chunks_done
    resumed.Par.chunks_resumed;
  Alcotest.(check int) "resumed = bare" bare resumed.Par.value;
  let faulted =
    count ~fault:(fault_on ~kind:Par.Crash ~chunks:[ 0; 7 ] ~attempts_below:1) ()
  in
  Alcotest.(check int) "two crashes retried" 2 faulted.Par.retries;
  Alcotest.(check int) "crash-retried = bare" bare faulted.Par.value

let test_crash_repeated_up_to_max_retries () =
  (* two consecutive crashes: the third and last attempt succeeds and the
     result is untouched *)
  List.iter
    (fun jobs ->
      fault_equal_baseline
        (Printf.sprintf "double crash, jobs %d" jobs)
        ~jobs
        ~fault:(fault_on ~kind:Par.Crash ~chunks:[ 7 ] ~attempts_below:2)
        ~expect_retries:2)
    [ 1; 4 ]

let test_crash_exhausts_retries () =
  (* a chunk that crashes on every attempt surfaces as a typed error after
     three attempts, on any jobs count *)
  List.iter
    (fun jobs ->
      match
        float_sum_run ~jobs ~chunk:256 ~trials:10_000
          ~fault:(fun ~chunk:id ~attempt:_ -> if id = 3 then Some Par.Crash else None)
          42
      with
      | _ -> Alcotest.fail "expected Retries_exhausted"
      | exception Par.Retries_exhausted { chunk; attempts; last_error } ->
        Alcotest.(check int) "failing chunk" 3 chunk;
        Alcotest.(check int) "1 try + 2 retries" 3 attempts;
        Alcotest.(check bool) (Printf.sprintf "last_error: %s" last_error) true
          (String.length last_error > 0))
    [ 1; 4 ]

let test_wedge_recovers () =
  (* a wedged worker abandons its chunk; the scheduler re-runs it (and any
     chunks the lost worker never claimed) on the calling domain with a
     bit-identical result — including jobs:1, where the only worker dies *)
  List.iter
    (fun jobs ->
      fault_equal_baseline
        (Printf.sprintf "wedge chunk 2, jobs %d" jobs)
        ~jobs
        ~fault:(fault_on ~kind:Par.Wedge ~chunks:[ 2 ] ~attempts_below:1)
        ~expect_retries:1)
    [ 1; 4 ]

let test_wedge_exhausts_retries () =
  (* a chunk that wedges every worker it lands on, the calling domain's
     recovery included, fails after three attempts *)
  match
    float_sum_run ~jobs:2 ~chunk:256 ~trials:10_000
      ~fault:(fun ~chunk:id ~attempt:_ -> if id = 0 then Some Par.Wedge else None)
      42
  with
  | _ -> Alcotest.fail "expected Retries_exhausted"
  | exception Par.Retries_exhausted { chunk; attempts; _ } ->
    Alcotest.(check int) "failing chunk" 0 chunk;
    Alcotest.(check int) "1 try + 2 retries" 3 attempts

let test_user_exception_is_retried () =
  (* a transient user exception (fails on the first visit to one chunk) is
     retried like an injected crash, on a rebuilt worker, via the same
     substream replay *)
  let trials = 5_000 and chunk = 256 in
  let baseline = float_sum ~jobs:1 ~chunk ~trials 42 in
  let poisoned = Atomic.make true in
  let built = Atomic.make 0 in
  let g =
    Par.run ~jobs:1 ~chunk ~trials
      ~init:(fun () -> 0.0)
      ~worker:(fun () ->
        Atomic.incr built;
        fun acc r ->
          (* fail exactly once, on the first trial ever executed; the retry
             replays the whole chunk from its substream start *)
          if Atomic.compare_and_set poisoned true false then failwith "transient";
          acc +. Rng.float r)
      ~merge:( +. ) (Rng.create 42)
  in
  Alcotest.(check bool) "value = baseline despite the transient failure" true
    (Int64.equal (bits g.Par.value) (bits baseline));
  Alcotest.(check int) "one retry" 1 g.Par.retries;
  Alcotest.(check int) "the retry rebuilt the worker" 2 (Atomic.get built)

let test_fault_with_checkpoint_resume () =
  (* the full gauntlet: faults + budget + checkpoint on the first run,
     faults again on the resume — still bit-identical to the plain result *)
  let trials = 20_000 and chunk = 256 in
  with_tmp @@ fun file ->
  let reference = float_sum ~jobs:1 ~chunk ~trials 42 in
  let fault = fault_on ~kind:Par.Crash ~chunks:[ 1; 30 ] ~attempts_below:1 in
  let first =
    float_sum_run ~jobs:4 ~chunk ~trials
      ~budget:(Budget.create ~max_work:40 ())
      ~checkpoint:file ~checkpoint_every:8 ~fault 42
  in
  Alcotest.(check bool) "first is partial" true (first.Par.exhausted <> None);
  let resumed = float_sum_run ~jobs:4 ~chunk ~trials ~resume:file ~fault 42 in
  Alcotest.(check bool) "resumed = plain run (bitwise)" true
    (Int64.equal (bits resumed.Par.value) (bits reference))

let test_stop_checkpoint_resume_crash () =
  (* the combination one engine allows: an adaptive count interrupted by a
     work cap, checkpointed, hit by crashes, then resumed (crashing again)
     stops at exactly the trial count and value of a clean adaptive run *)
  List.iter
    (fun jobs ->
      with_tmp @@ fun file ->
      let count ?budget ?checkpoint ?resume ?fault () =
        Par.count ~jobs ~chunk:256 ?budget ?checkpoint ~checkpoint_every:3 ?resume ?fault
          ~target_width:0.02 ~trials:1_000_000 ~worker:coin (Rng.create 11)
      in
      let clean = count () in
      Alcotest.(check bool) "clean run met the target" true clean.Par.target_met;
      let fault = fault_on ~kind:Par.Crash ~chunks:[ 1; 5; 20 ] ~attempts_below:1 in
      let first = count ~budget:(Budget.create ~max_work:10 ()) ~checkpoint:file ~fault () in
      Alcotest.(check bool) "interrupted before the target" true
        (first.Par.exhausted <> None && not first.Par.target_met);
      Alcotest.(check bool) "crashes retried" true (first.Par.retries >= 2);
      let resumed = count ~resume:file ~checkpoint:file ~fault () in
      Alcotest.(check bool) (Printf.sprintf "jobs %d: target met" jobs) true resumed.Par.target_met;
      Alcotest.(check int)
        (Printf.sprintf "jobs %d: same stopping trial count" jobs)
        clean.Par.trials_done resumed.Par.trials_done;
      Alcotest.(check int) (Printf.sprintf "jobs %d: same count" jobs) clean.Par.value
        resumed.Par.value;
      Alcotest.(check bool) "resumed the interrupted chunks" true
        (resumed.Par.chunks_resumed >= first.Par.chunks_done);
      (* the stopped run's own checkpoint covers at least its prefix *)
      let again = count ~resume:file () in
      Alcotest.(check bool) "checkpoint of a stopped run" true
        (again.Par.chunks_resumed >= clean.Par.chunks_done
         && again.Par.trials_done = clean.Par.trials_done))
    [ 1; 4 ]

(* -- stopping and reporting ---------------------------------------------- *)

let test_streaming_equals_run () =
  (* the counter is [run] with a counting worker: same schedule, same
     merge order, same record *)
  let c = Par.count ~jobs:1 ~trials:30_000 ~worker:coin (Rng.create 9) in
  let r =
    Par.run ~jobs:1 ~trials:30_000
      ~init:(fun () -> 0)
      ~worker:(fun () acc r -> if coin () r then acc + 1 else acc)
      ~merge:( + ) (Rng.create 9)
  in
  Alcotest.(check int) "count = run" r.Par.value c.Par.value;
  Alcotest.(check int) "all trials done" 30_000 c.Par.trials_done;
  Alcotest.(check bool) "no stop requested" false c.Par.target_met;
  Alcotest.(check bool) "no budget" true (c.Par.exhausted = None);
  Alcotest.(check int) "nothing resumed" 0 c.Par.chunks_resumed;
  Alcotest.(check int) "no checkpoints" 0 c.Par.checkpoints_written

let test_streaming_advances_caller_rng () =
  (* a stopped run also takes exactly one draw from the caller's rng *)
  let a = Rng.create 5 in
  ignore (Par.count ~jobs:2 ~target_width:0.05 ~trials:50_000 ~worker:coin a);
  let b = Rng.create 5 in
  ignore (Rng.bits64 b);
  for _ = 1 to 10 do
    Alcotest.(check int64) "streams aligned" (Rng.bits64 b) (Rng.bits64 a)
  done

let adaptive ?jobs ?chunk ?budget ?report seed =
  Par.count ?jobs ?chunk ?budget ?report ~target_width:0.02 ~trials:1_000_000 ~worker:coin
    (Rng.create seed)

let test_adaptive_stops_within_width () =
  let s = adaptive 11 in
  Alcotest.(check bool) "target met" true s.Par.target_met;
  Alcotest.(check bool) "stopped early" true (s.Par.trials_done < 1_000_000);
  let ci = Stats.wilson_ci ~successes:s.Par.value ~trials:s.Par.trials_done ~z:1.96 in
  Alcotest.(check bool)
    (Printf.sprintf "width %f <= 0.02" (ci.Stats.hi -. ci.Stats.lo))
    true
    (ci.Stats.hi -. ci.Stats.lo <= 0.02)

let test_adaptive_deterministic_and_jobs_invariant () =
  (* the stop predicate runs on the schedule-order prefix, so the stopping
     trial count — not just the estimate — is reproducible and identical at
     every jobs count (overrun chunks from racing workers are discarded) *)
  let s1 = adaptive ~jobs:1 11 in
  List.iter
    (fun jobs ->
      let s = adaptive ~jobs 11 in
      Alcotest.(check int)
        (Printf.sprintf "jobs=%d same stopping point" jobs)
        s1.Par.trials_done s.Par.trials_done;
      Alcotest.(check int) (Printf.sprintf "jobs=%d same count" jobs) s1.Par.value s.Par.value)
    [ 1; 2; 4 ]

let test_adaptive_max_trials_cap () =
  (* an unreachable width runs to the cap and says the target was missed *)
  let s = Par.count ~jobs:1 ~target_width:0.0001 ~trials:20_000 ~worker:coin (Rng.create 3) in
  Alcotest.(check bool) "target not met" false s.Par.target_met;
  Alcotest.(check int) "ran to the cap" 20_000 s.Par.trials_done

let test_streaming_budget_partial () =
  (* a work cap of k chunks yields exactly the k-chunk schedule prefix: the
     value equals an honest k*chunk-trial run with the same seed *)
  let chunk = 512 in
  let s =
    Par.count ~jobs:1 ~chunk ~budget:(Budget.create ~max_work:4 ()) ~trials:100_000
      ~worker:coin (Rng.create 21)
  in
  Alcotest.(check bool) "exhausted" true (s.Par.exhausted <> None);
  Alcotest.(check int) "prefix trials" (4 * chunk) s.Par.trials_done;
  Alcotest.(check int) "prefix chunks" 4 s.Par.chunks_done;
  let reference = Par.count ~jobs:1 ~chunk ~trials:(4 * chunk) ~worker:coin (Rng.create 21) in
  Alcotest.(check int) "prefix value = honest short run" reference.Par.value s.Par.value;
  (* zero budget: nothing ran, and the record says so *)
  let z =
    Par.count ~jobs:1 ~budget:(Budget.create ~max_work:0 ()) ~trials:100_000 ~worker:coin
      (Rng.create 21)
  in
  Alcotest.(check int) "zero trials" 0 z.Par.trials_done;
  Alcotest.(check bool) "zero exhausted" true (z.Par.exhausted <> None)

let test_streaming_report () =
  (* reports fire every 16 merged chunks, with monotone trial counts
     consistent with the running prefix, at any jobs count *)
  let chunk = 100 in
  List.iter
    (fun jobs ->
      let calls = ref [] in
      ignore
        (Par.count ~jobs ~chunk
           ~report:(fun ~trials ~successes -> calls := (trials, successes) :: !calls)
           ~trials:10_000 ~worker:coin (Rng.create 7));
      let calls = List.rev !calls in
      Alcotest.(check int) "100 chunks, a report every 16" 6 (List.length calls);
      List.iteri
        (fun i (trials, successes) ->
          Alcotest.(check int) "every 16 chunks" ((i + 1) * 16 * chunk) trials;
          Alcotest.(check bool) "successes sane" true (0 <= successes && successes <= trials))
        calls)
    [ 1; 4 ]

let test_streaming_guards () =
  let check_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  check_invalid "trials" (fun () -> Par.count ~trials:0 ~worker:coin (Rng.create 1));
  check_invalid "target_width" (fun () ->
      Par.count ~target_width:0.0 ~trials:10 ~worker:coin (Rng.create 1));
  check_invalid "negative target_width" (fun () ->
      Par.count ~target_width:(-0.1) ~trials:10 ~worker:coin (Rng.create 1));
  check_invalid "nan target_width" (fun () ->
      Par.count ~target_width:Float.nan ~trials:10 ~worker:coin (Rng.create 1))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("run is jobs-invariant (bitwise)", test_run_jobs_invariant);
      ("default jobs = jobs:1 result", test_run_default_jobs_matches_one);
      ("caller rng advanced by one draw", test_run_advances_caller_rng_uniformly);
      ("count matches the keyed-chunk schedule", test_count_matches_manual);
      ("histogram accumulator merges jobs-invariantly", test_histogram_accumulator_merge);
      ("substreams deterministic and distinct", test_substream_deterministic_and_distinct);
      ("substream pooled uniformity (chi2)", test_substream_uniformity);
      ("map_list order and jobs", test_map_list_order_and_jobs);
      ("map_array propagates exceptions", test_map_array_exception_propagates);
      ("guards", test_guards);
      ("governed = plain run (bitwise)", test_governed_equals_plain_run);
      ("governed advances caller rng by one draw", test_governed_advances_caller_rng_uniformly);
      ("work cap yields exact prefix partial", test_work_cap_partial);
      ("zero budget yields empty partial", test_zero_budget_partial_is_empty);
      ("checkpoint kill+resume bit-identical (jobs 1)", test_checkpoint_roundtrip_jobs1);
      ("checkpoint kill+resume bit-identical (jobs 4)", test_checkpoint_roundtrip_jobs4);
      ("resume of a finished checkpoint is a no-op", test_resume_from_finished_checkpoint_is_noop);
      ("damaged/mismatched snapshots rejected", test_resume_rejects_damaged_snapshots);
      ("crash on first chunk recovers bit-identically", test_crash_first_chunk);
      ("crash on middle chunk recovers bit-identically", test_crash_middle_chunk);
      ("repeated crashes within max_retries recover", test_crash_repeated_up_to_max_retries);
      ("settling kernel: checkpoint, resume, crash = bare run", test_settling_checkpoint_resume_crash);
      ("persistent crash exhausts retries", test_crash_exhausts_retries);
      ("wedged worker recovers bit-identically", test_wedge_recovers);
      ("persistent wedge exhausts retries", test_wedge_exhausts_retries);
      ("transient user exception retried", test_user_exception_is_retried);
      ("faults + checkpoint + resume bit-identical", test_fault_with_checkpoint_resume);
      ("checkpoint from another estimator rejected", test_resume_rejects_other_estimator);
      ("stop + checkpoint/resume + crash = clean adaptive run", test_stop_checkpoint_resume_crash);
      ("streaming = run/count (bitwise)", test_streaming_equals_run);
      ("streaming advances caller rng by one draw", test_streaming_advances_caller_rng);
      ("adaptive stop reaches the target width", test_adaptive_stops_within_width);
      ("adaptive stopping point jobs-invariant", test_adaptive_deterministic_and_jobs_invariant);
      ("adaptive respects max_trials cap", test_adaptive_max_trials_cap);
      ("streaming budget partial is the exact prefix", test_streaming_budget_partial);
      ("streaming report cadence", test_streaming_report);
      ("streaming guards", test_streaming_guards);
    ]
