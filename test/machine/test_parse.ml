module P = Memrel_machine.Parse
module L = Memrel_machine.Litmus
module I = Memrel_machine.Instr
module E = Memrel_machine.Enumerate
module Model = Memrel_memmodel.Model
module Fence = Memrel_memmodel.Fence

let sb_text =
  {|# classic store buffering
name: sb-parsed
description: SB via the text format
thread: x = 1 ; r0 = y
thread: y = 1 ; r0 = x
relaxed: 0:r0=0 1:r0=0
|}

let test_parse_sb () =
  let t, locs = P.parse_with_locations sb_text in
  Alcotest.(check string) "name" "sb-parsed" t.L.name;
  Alcotest.(check int) "two threads" 2 (List.length t.L.programs);
  Alcotest.(check (list (pair string int))) "locations in appearance order"
    [ ("x", 0); ("y", 1) ] locs;
  (* and the parsed test behaves exactly like the hand-built corpus SB *)
  List.iter
    (fun family ->
      let parsed, _ = L.run_exhaustive t family in
      let builtin, _ = L.run_exhaustive (L.find "sb") family in
      Alcotest.(check int) "same outcome count" (List.length builtin.E.outcomes)
        (List.length parsed.E.outcomes);
      Alcotest.(check bool) "same relaxed verdict"
        (List.mem_assoc (L.find "sb").L.relaxed_outcome builtin.E.outcomes)
        (List.mem_assoc t.L.relaxed_outcome parsed.E.outcomes))
    [ Model.Sequential_consistency; Model.Total_store_order; Model.Weak_ordering ]

let test_parse_instructions () =
  let locs = [ ("x", 0); ("flag", 1) ] in
  let p = P.parse_instruction ~locations:locs in
  Alcotest.(check string) "store imm" "mem[0] := 5" (I.to_string (p "x = 5"));
  Alcotest.(check string) "store reg" "mem[1] := r2" (I.to_string (p "flag = r2"));
  Alcotest.(check string) "load" "r3 := mem[0]" (I.to_string (p "r3 = x"));
  Alcotest.(check string) "add" "r0 := r0 + 1" (I.to_string (p "r0 = r0 + 1"));
  Alcotest.(check string) "sub imms" "r1 := 5 - 3" (I.to_string (p "r1 = 5 - 3"));
  Alcotest.(check string) "mul" "r2 := r0 * r1" (I.to_string (p "r2 = r0 * r1"));
  Alcotest.(check string) "move" "r4 := r5 + 0" (I.to_string (p "r4 = r5"));
  Alcotest.(check string) "fence" "fence.release" (I.to_string (p "fence.release"));
  Alcotest.(check string) "fence acq" "fence.acquire" (I.to_string (p "fence.acquire"))

let check_parse_error text fragment =
  match P.parse text with
  | exception P.Parse_error { message; _ } ->
    if not (Astring.String.is_infix ~affix:fragment message) then
      Alcotest.fail (Printf.sprintf "error %S does not mention %S" message fragment)
  | _ -> Alcotest.fail "expected a parse error"

let test_errors () =
  check_parse_error "thread: x = 1\nrelaxed: x=1\n" "missing 'name:'";
  check_parse_error "name: t\nrelaxed: x=1\n" "no threads";
  check_parse_error "name: t\nthread: x = 1\n" "missing 'relaxed:'";
  check_parse_error "name: t\nthread: x = y\nrelaxed: x=1\n" "memory-to-memory";
  check_parse_error "name: t\nthread: 5 = x\nrelaxed: x=1\n" "cannot assign to a constant";
  check_parse_error "name: t\nthread: x = 1\nbogus: 3\nrelaxed: x=1\n" "unknown key";
  check_parse_error "name: t\nthread: x = 1 ; zzz\nrelaxed: x=1\n" "cannot parse instruction";
  check_parse_error "name: t\nthread: x = 1\nrelaxed: x\n" "needs '=value'";
  check_parse_error "name: t\nthread: r0 = x ? 1\nrelaxed: x=1\n" "unknown operator"

let test_error_line_numbers () =
  (match P.parse "name: t\nthread: x = 1\nthread: garbage here now\nrelaxed: x=1\n" with
   | exception P.Parse_error { line; _ } -> Alcotest.(check int) "line 3" 3 line
   | _ -> Alcotest.fail "expected error")

let test_init_and_memory_observable () =
  let text =
    {|name: counter
init: x=40
thread: r0 = x ; r0 = r0 + 1 ; x = r0
thread: r0 = x ; r0 = r0 + 2 ; x = r0
relaxed: x=41
|}
  in
  let t = P.parse text in
  let r, _ = L.run_exhaustive t Model.Sequential_consistency in
  let outcomes = List.map fst r.E.outcomes in
  (* sequential: 43; races: 41 (the +1 wins last over stale) or 42 *)
  Alcotest.(check bool) "43 reachable" true (List.mem [ ("x", 43) ] outcomes);
  Alcotest.(check bool) "41 reachable (lost update)" true (List.mem [ ("x", 41) ] outcomes);
  Alcotest.(check bool) "42 reachable (lost update)" true (List.mem [ ("x", 42) ] outcomes)

let test_comments_and_blank_lines () =
  let t =
    P.parse
      "# header comment\n\nname: c # trailing comment\n\nthread: x = 1\nrelaxed: x=1\n"
  in
  Alcotest.(check string) "name trimmed of comment" "c" t.L.name

let test_register_vs_location_names () =
  (* 'r1' must be a register, 'rate' and 'r' must be locations *)
  let t, locs =
    P.parse_with_locations "name: t\nthread: rate = 1 ; r = 2 ; r1 = rate\nrelaxed: 0:r1=1\n"
  in
  Alcotest.(check (list (pair string int))) "locations" [ ("rate", 0); ("r", 1) ] locs;
  Alcotest.(check int) "one thread" 1 (List.length t.L.programs)

let test_rmw_parse_and_run () =
  Alcotest.(check string) "rmw form" "r0 := rmw mem[0] + 1"
    (I.to_string (P.parse_instruction ~locations:[ ("x", 0) ] "r0 = rmw x + 1"));
  let t =
    P.parse
      "name: inc-rmw\nthread: r0 = rmw x + 1\nthread: r0 = rmw x + 1\nrelaxed: x=1\n"
  in
  let r, _ = L.run_exhaustive t Model.Weak_ordering in
  Alcotest.(check bool) "x=1 unreachable" false (List.mem_assoc t.L.relaxed_outcome r.E.outcomes);
  check_parse_error "name: t\nthread: x = rmw y + 1\nrelaxed: x=1\n" "rmw form"

let test_many_locations_first_appearance () =
  (* regression for the quadratic location environment: numbering must be
     first-appearance order even with many distinct locations, and lookups
     of already-bound names (the init line re-mentions every location) must
     reuse the original numbers *)
  let n = 200 in
  let loc i = Printf.sprintf "loc%03d" i in
  let init = String.concat " " (List.init n (fun i -> loc i ^ "=0")) in
  let body = String.concat " ; " (List.init n (fun i -> Printf.sprintf "%s = %d" (loc i) i)) in
  let text =
    Printf.sprintf "name: wide\ninit: %s\nthread: %s\nrelaxed: %s=0\n" init body (loc 0)
  in
  let _, locs = P.parse_with_locations text in
  Alcotest.(check int) "all locations bound once" n (List.length locs);
  List.iteri
    (fun i (name, l) ->
      Alcotest.(check string) "appearance order" (loc i) name;
      Alcotest.(check int) "consecutive numbering" i l)
    locs

let test_mp_with_fences_roundtrip () =
  let text =
    {|name: mp-ra
thread: x = 1 ; fence.release ; y = 1
thread: r0 = y ; fence.acquire ; r1 = x
relaxed: 0:r0=0 1:r0=1 1:r1=0
|}
  in
  (* observables include a thread-0 register to exercise multi-thread
     observation; the relaxed (1,0) message-passing violation must stay
     unreachable even under WO thanks to the fences *)
  let t = P.parse text in
  let r, _ = L.run_exhaustive t Model.Weak_ordering in
  Alcotest.(check bool) "fenced MP forbidden" false
    (List.mem_assoc t.L.relaxed_outcome r.E.outcomes)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("parse SB and match corpus", test_parse_sb);
      ("instruction forms", test_parse_instructions);
      ("error messages", test_errors);
      ("error line numbers", test_error_line_numbers);
      ("init and memory observables", test_init_and_memory_observable);
      ("comments and blanks", test_comments_and_blank_lines);
      ("register vs location names", test_register_vs_location_names);
      ("many locations first-appearance order", test_many_locations_first_appearance);
      ("rmw parse and run", test_rmw_parse_and_run);
      ("fenced MP roundtrip", test_mp_with_fences_roundtrip);
    ]
