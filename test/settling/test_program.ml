module Program = Memrel_settling.Program
module Op = Memrel_memmodel.Op
module Fence = Memrel_memmodel.Fence
module Rng = Memrel_prob.Rng

let test_generate_shape () =
  let rng = Rng.create 1 in
  let p = Program.generate rng ~m:10 in
  Alcotest.(check int) "length" 12 (Program.length p);
  Alcotest.(check int) "cl index" 10 (Program.critical_load_index p);
  Alcotest.(check int) "cs index" 11 (Program.critical_store_index p);
  Alcotest.(check bool) "cl op" true (Op.is_critical_load (Program.op p 10));
  Alcotest.(check bool) "cs op" true (Op.is_critical_store (Program.op p 11));
  for i = 0 to 9 do
    Alcotest.(check bool) "prefix plain" false (Op.is_critical (Program.op p i))
  done

let test_generate_zero_m () =
  let rng = Rng.create 1 in
  let p = Program.generate rng ~m:0 in
  Alcotest.(check int) "just critical pair" 2 (Program.length p);
  Alcotest.(check string) "rendering" "ls" (Program.to_string p)

let test_generate_p_extremes () =
  let rng = Rng.create 2 in
  let all_st = Program.generate ~p:1.0 rng ~m:20 in
  for i = 0 to 19 do
    Alcotest.(check bool) "p=1 all ST" true (Op.kind_of (Program.op all_st i) = Some Op.ST)
  done;
  let all_ld = Program.generate ~p:0.0 rng ~m:20 in
  for i = 0 to 19 do
    Alcotest.(check bool) "p=0 all LD" true (Op.kind_of (Program.op all_ld i) = Some Op.LD)
  done

let test_generate_st_fraction () =
  let rng = Rng.create 3 in
  let count = ref 0 in
  let trials = 2000 and m = 50 in
  for _ = 1 to trials do
    let p = Program.generate ~p:0.3 rng ~m in
    for i = 0 to m - 1 do
      if Op.kind_of (Program.op p i) = Some Op.ST then incr count
    done
  done;
  Alcotest.(check (float 0.01)) "ST fraction ~ p" 0.3
    (float_of_int !count /. float_of_int (trials * m))

let test_invalid_args () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "m < 0" (Invalid_argument "Program.generate: m < 0") (fun () ->
      ignore (Program.generate rng ~m:(-1)));
  Alcotest.check_raises "p > 1" (Invalid_argument "Program.generate: p out of [0,1]") (fun () ->
      ignore (Program.generate ~p:1.5 rng ~m:3))

let test_of_kinds () =
  let p = Program.of_kinds [ Op.ST; Op.LD; Op.ST ] in
  Alcotest.(check string) "rendering" "SLSls" (Program.to_string p);
  Alcotest.(check int) "cl" 3 (Program.critical_load_index p)

let test_of_ops_validation () =
  Alcotest.check_raises "missing criticals" (Invalid_argument "Program: missing critical instruction")
    (fun () -> ignore (Program.of_ops [ Op.plain Op.LD ]));
  Alcotest.check_raises "store before load"
    (Invalid_argument "Program: critical load must precede critical store") (fun () ->
      ignore (Program.of_ops [ Op.critical_store; Op.critical_load ]));
  Alcotest.check_raises "duplicate load" (Invalid_argument "Program: duplicate critical load")
    (fun () ->
      ignore (Program.of_ops [ Op.critical_load; Op.critical_load; Op.critical_store ]))

let test_with_fences () =
  let p = Program.of_kinds [ Op.ST; Op.LD; Op.ST; Op.LD ] in
  let f = Program.with_fences ~every:2 ~kind:Fence.Release p in
  Alcotest.(check string) "fences every 2 prefix ops" "SLRSLRls" (Program.to_string f);
  Alcotest.(check int) "cl index moved" 6 (Program.critical_load_index f);
  Alcotest.check_raises "every < 1" (Invalid_argument "Program.with_fences: every < 1") (fun () ->
      ignore (Program.with_fences ~every:0 ~kind:Fence.Full p))

let test_ops_copy_is_fresh () =
  let p = Program.of_kinds [ Op.ST ] in
  let a = Program.ops p in
  a.(0) <- Op.plain Op.LD;
  Alcotest.(check string) "mutation does not leak" "Sls" (Program.to_string p)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("generate shape", test_generate_shape);
      ("generate m=0", test_generate_zero_m);
      ("p extremes", test_generate_p_extremes);
      ("ST fraction matches p", test_generate_st_fraction);
      ("invalid arguments", test_invalid_args);
      ("of_kinds", test_of_kinds);
      ("of_ops validation", test_of_ops_validation);
      ("with_fences", test_with_fences);
      ("ops returns a copy", test_ops_copy_is_fresh);
    ]
