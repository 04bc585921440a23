module Budget = Memrel_prob.Budget

let test_unlimited_never_trips () =
  let b = Budget.create () in
  Budget.spend b 1_000_000;
  Alcotest.(check bool) "no armed limit, no cause" true (Budget.check b = None)

let test_work_cap () =
  let b = Budget.create ~max_work:10 () in
  Budget.spend b 9;
  Alcotest.(check bool) "under the cap" true (Budget.check b = None);
  Budget.spend b 1;
  Alcotest.(check bool) "at the cap" true (Budget.check b = Some Budget.Work);
  Alcotest.(check int) "work counter" 10 (Budget.work_done b)

let test_work_cap_zero_trips_immediately () =
  let b = Budget.create ~max_work:0 () in
  Alcotest.(check bool) "zero cap trips on first check" true
    (Budget.check b = Some Budget.Work)

let test_deadline_zero_trips_immediately () =
  let b = Budget.create ~deadline_s:0.0 () in
  Alcotest.(check bool) "expired deadline trips" true (Budget.check b = Some Budget.Deadline)

let test_generous_deadline_does_not_trip () =
  let b = Budget.create ~deadline_s:3600.0 () in
  Alcotest.(check bool) "an hour from now" true (Budget.check b = None);
  Alcotest.(check bool) "elapsed is sane" true (Budget.elapsed_s b >= 0.0)

let test_memory_watermark () =
  (* the current heap is far above 1 byte and far below 1 TB *)
  let low = Budget.create ~max_mem_bytes:1 () in
  Alcotest.(check bool) "tiny watermark trips" true (Budget.check low = Some Budget.Memory);
  let high = Budget.create ~max_mem_bytes:(1 lsl 40) () in
  Alcotest.(check bool) "huge watermark does not" true (Budget.check high = None)

(* the heap is sampled on the first check, then once per sample_every
   work units: a heap that crosses the watermark just after a sample trips
   the check at the next sample, not before it and not after it *)
let test_watermark_sampled_within_bound () =
  let heap () = (Gc.quick_stat ()).Gc.heap_words * (Sys.word_size / 8) in
  let watermark = heap () + (8 lsl 20) in
  let b = Budget.create ~max_mem_bytes:watermark () in
  Alcotest.(check bool) "under the watermark at the first check" true (Budget.check b = None);
  let ballast = Sys.opaque_identity (Array.make (4 lsl 20) 0) in
  Alcotest.(check bool) "the heap is now over it" true (heap () >= watermark);
  let tripped_at = ref None in
  for unit = 1 to 2 * Budget.sample_every do
    Budget.spend b 1;
    if !tripped_at = None && Budget.check b = Some Budget.Memory then tripped_at := Some unit
  done;
  Alcotest.(check (option int)) "trips at the next sample" (Some Budget.sample_every) !tripped_at;
  ignore (Sys.opaque_identity ballast)

let test_check_priority () =
  (* when several limits are exhausted at once, the work cap is reported
     first (the deterministic one) *)
  let b = Budget.create ~max_work:0 ~deadline_s:0.0 ~max_mem_bytes:1 () in
  Alcotest.(check bool) "work wins" true (Budget.check b = Some Budget.Work)

let test_spend_is_cumulative_and_atomic_under_domains () =
  let b = Budget.create () in
  let domains =
    List.init 4 (fun _ -> Domain.spawn (fun () -> for _ = 1 to 10_000 do Budget.spend b 1 done))
  in
  List.iter Domain.join domains;
  Alcotest.(check int) "no lost updates" 40_000 (Budget.work_done b)

let test_exhaustion_record () =
  let b = Budget.create ~max_work:5 () in
  Budget.spend b 5;
  let e = Budget.exhaustion b Budget.Work in
  Alcotest.(check int) "work_done snapshot" 5 e.Budget.work_done;
  Alcotest.(check bool) "elapsed nonnegative" true (e.Budget.elapsed_s >= 0.0);
  Alcotest.(check string) "cause string" "work cap" (Budget.cause_to_string e.Budget.cause);
  let d = Budget.describe e in
  Alcotest.(check bool) (Printf.sprintf "describe mentions the cause: %s" d) true
    (String.length d > 0
    && Astring.String.is_infix ~affix:"work cap" d
    && Astring.String.is_infix ~affix:"5 work units" d)

let test_negative_limits_rejected () =
  Alcotest.check_raises "negative deadline"
    (Invalid_argument "Budget.create: deadline_s must be nonnegative") (fun () ->
      ignore (Budget.create ~deadline_s:(-1.0) ()));
  Alcotest.check_raises "negative work cap"
    (Invalid_argument "Budget.create: max_work must be nonnegative") (fun () ->
      ignore (Budget.create ~max_work:(-1) ()));
  Alcotest.check_raises "negative watermark"
    (Invalid_argument "Budget.create: max_mem_bytes must be nonnegative") (fun () ->
      ignore (Budget.create ~max_mem_bytes:(-1) ()))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("unlimited budget never trips", test_unlimited_never_trips);
      ("work cap trips at the cap", test_work_cap);
      ("zero work cap trips immediately", test_work_cap_zero_trips_immediately);
      ("zero deadline trips immediately", test_deadline_zero_trips_immediately);
      ("generous deadline does not trip", test_generous_deadline_does_not_trip);
      ("memory watermark", test_memory_watermark);
      ("memory watermark sampled within its bound", test_watermark_sampled_within_bound);
      ("work cap checked before deadline", test_check_priority);
      ("spend is atomic across domains", test_spend_is_cumulative_and_atomic_under_domains);
      ("exhaustion record and describe", test_exhaustion_record);
      ("negative limits rejected", test_negative_limits_rejected);
    ]
