module I = Memrel_machine.Instr
module State = Memrel_machine.State
module Sem = Memrel_machine.Semantics
module Model = Memrel_memmodel.Model
module Fence = Memrel_memmodel.Fence
module Ref = Memrel_oracle.Enumerate_reference

let mk programs = State.init ~programs ~initial_mem:[]

let test_of_model () =
  Alcotest.(check bool) "sc" true (Sem.of_model Model.Sequential_consistency = Sem.Sc);
  Alcotest.(check bool) "tso" true (Sem.of_model Model.Total_store_order = Sem.Tso);
  Alcotest.(check bool) "wo window" true
    (Sem.of_model ~window:4 Model.Weak_ordering = Sem.Wo { window = 4 });
  Alcotest.check_raises "custom rejected"
    (Invalid_argument "Semantics.of_model: no operational semantics for Custom") (fun () ->
      ignore (Sem.of_model Model.Custom))

let test_sc_single_thread_deterministic () =
  let st = mk [ [| I.store ~loc:0 ~src:(I.Imm 5); I.load ~reg:0 ~loc:0 |] ] in
  let rec run st =
    match Sem.transitions Sem.Sc st with
    | [] -> st
    | [ (_, st') ] -> run st'
    | _ -> Alcotest.fail "SC single thread must be deterministic"
  in
  let final = run st in
  Alcotest.(check int) "mem" 5 (State.mem_read final 0);
  Alcotest.(check int) "reg" 5 (State.reg final.State.threads.(0) 0)

let test_terminal_no_transitions () =
  let st = mk [ [||] ] in
  Alcotest.(check int) "empty program terminal" 0 (List.length (Sem.transitions Sem.Sc st));
  Alcotest.(check bool) "all done" true (State.all_done st)

let test_tso_buffering_and_forwarding () =
  let st = mk [ [| I.store ~loc:0 ~src:(I.Imm 9); I.load ~reg:0 ~loc:0 |] ] in
  (* step 1: execute the store -> goes to buffer, not memory *)
  let st1 =
    match Sem.transitions Sem.Tso st with
    | [ (Sem.Exec _, s) ] -> s
    | _ -> Alcotest.fail "expected single exec"
  in
  Alcotest.(check int) "memory untouched" 0 (State.mem_read st1 0);
  Alcotest.(check (option int)) "buffered" (Some 9)
    (State.buffered_read_fifo st1.State.threads.(0) 0);
  (* now both the load (forwarding) and the flush are enabled *)
  let ts = Sem.transitions Sem.Tso st1 in
  Alcotest.(check int) "two choices" 2 (List.length ts);
  (* take the exec: load must forward 9 from own buffer *)
  let st2 =
    List.assoc (Sem.Exec { thread = 0; index = 1 })
      (List.map (fun (l, s) -> (l, s)) ts)
  in
  Alcotest.(check int) "forwarded" 9 (State.reg st2.State.threads.(0) 0)

let test_tso_fifo_order () =
  let st =
    mk [ [| I.store ~loc:0 ~src:(I.Imm 1); I.store ~loc:1 ~src:(I.Imm 2) |] ]
  in
  (* execute both stores *)
  let step st = match Sem.transitions Sem.Tso st with
    | (Sem.Exec _, s) :: _ -> s
    | _ -> Alcotest.fail "expected exec" in
  let st = step (step st) in
  (* first flush must publish loc 0, not loc 1 *)
  let flushes =
    List.filter_map
      (function Sem.Flush { loc; _ }, s -> Some (loc, s) | _ -> None)
      (Sem.transitions Sem.Tso st)
  in
  Alcotest.(check (list int)) "only oldest flushable" [ 0 ] (List.map fst flushes);
  let st = snd (List.hd flushes) in
  Alcotest.(check int) "published" 1 (State.mem_read st 0);
  Alcotest.(check int) "second still buffered" 0 (State.mem_read st 1)

let test_pso_reorders_flushes () =
  let st =
    mk [ [| I.store ~loc:0 ~src:(I.Imm 1); I.store ~loc:1 ~src:(I.Imm 2) |] ]
  in
  let step st = match Sem.transitions Sem.Pso st with
    | (Sem.Exec _, s) :: _ -> s
    | _ -> Alcotest.fail "expected exec" in
  let st = step (step st) in
  let flush_locs =
    List.filter_map (function Sem.Flush { loc; _ }, _ -> Some loc | _ -> None)
      (Sem.transitions Sem.Pso st)
  in
  Alcotest.(check (list int)) "either location may flush first" [ 0; 1 ]
    (List.sort compare flush_locs)

let test_tso_fence_requires_empty_buffer () =
  let st = mk [ [| I.store ~loc:0 ~src:(I.Imm 1); I.fence Fence.Full; I.load ~reg:0 ~loc:1 |] ] in
  let step_exec st =
    match List.filter (function Sem.Exec _, _ -> true | _ -> false) (Sem.transitions Sem.Tso st) with
    | (_, s) :: _ -> Some s
    | [] -> None
  in
  let st1 = Option.get (step_exec st) in
  (* fence cannot execute with a full buffer: only the flush is available *)
  (match Sem.transitions Sem.Tso st1 with
   | [ (Sem.Flush _, _) ] -> ()
   | ts ->
     Alcotest.fail
       (Printf.sprintf "expected only flush, got %s"
          (String.concat "," (List.map (fun (l, _) -> Ref.label_to_string l) ts))));
  ()

let test_wo_reorders_independent () =
  (* two independent loads: both may issue first *)
  let st = mk [ [| I.load ~reg:0 ~loc:0; I.load ~reg:1 ~loc:1 |] ] in
  let labels = List.map fst (Sem.transitions (Sem.Wo { window = 4 }) st) in
  Alcotest.(check int) "both issueable" 2 (List.length labels)

let test_wo_respects_register_dependence () =
  let st =
    mk [ [| I.load ~reg:0 ~loc:0; I.binop ~dst:1 I.Add (I.Reg 0) (I.Imm 1) |] ]
  in
  let labels = List.map fst (Sem.transitions (Sem.Wo { window = 4 }) st) in
  Alcotest.(check int) "only the load ready" 1 (List.length labels)

let test_wo_respects_same_location () =
  let st = mk [ [| I.store ~loc:0 ~src:(I.Imm 1); I.load ~reg:0 ~loc:0 |] ] in
  let labels = List.map fst (Sem.transitions (Sem.Wo { window = 4 }) st) in
  Alcotest.(check int) "same-loc ordered" 1 (List.length labels)

let test_wo_window_bound () =
  let prog = Array.init 6 (fun i -> I.load ~reg:i ~loc:i) in
  let st = mk [ prog ] in
  let labels = List.map fst (Sem.transitions (Sem.Wo { window = 3 }) st) in
  Alcotest.(check int) "window of 3 limits lookahead" 3 (List.length labels)

let test_conflicts_matrix () =
  let prog =
    [| I.load ~reg:0 ~loc:0; I.load ~reg:1 ~loc:1; I.load ~reg:0 ~loc:2;
       I.store ~loc:1 ~src:(I.Imm 1); I.fence Fence.Full; I.load ~reg:2 ~loc:3 |]
  in
  Alcotest.(check bool) "independent loads" false (Sem.conflicts prog 0 1);
  Alcotest.(check bool) "WAW on r0" true (Sem.conflicts prog 0 2);
  Alcotest.(check bool) "same loc load/store" true (Sem.conflicts prog 1 3);
  Alcotest.(check bool) "full fence blocks later" true (Sem.conflicts prog 4 5);
  Alcotest.(check bool) "full fence waits for earlier" true (Sem.conflicts prog 0 4)

let test_fence_one_way_edges () =
  let prog_acq = [| I.store ~loc:0 ~src:(I.Imm 1); I.load ~reg:0 ~loc:1;
                    I.fence Fence.Acquire; I.load ~reg:1 ~loc:2 |] in
  (* acquire waits for earlier LOADS only *)
  Alcotest.(check bool) "acquire ignores earlier store" false (Sem.conflicts prog_acq 0 2);
  Alcotest.(check bool) "acquire waits for earlier load" true (Sem.conflicts prog_acq 1 2);
  Alcotest.(check bool) "acquire blocks later ops" true (Sem.conflicts prog_acq 2 3);
  let prog_rel = [| I.load ~reg:0 ~loc:0; I.fence Fence.Release;
                    I.store ~loc:1 ~src:(I.Imm 1); I.load ~reg:1 ~loc:2 |] in
  Alcotest.(check bool) "release waits for earlier" true (Sem.conflicts prog_rel 0 1);
  Alcotest.(check bool) "release blocks later store" true (Sem.conflicts prog_rel 1 2);
  Alcotest.(check bool) "release lets later load pass" false (Sem.conflicts prog_rel 1 3)

let test_binop_arithmetic () =
  let st =
    mk
      [ [| I.binop ~dst:0 I.Add (I.Imm 3) (I.Imm 4); I.binop ~dst:1 I.Sub (I.Reg 0) (I.Imm 2);
           I.binop ~dst:2 I.Mul (I.Reg 0) (I.Reg 1) |] ]
  in
  let rec run st =
    match Sem.transitions Sem.Sc st with [] -> st | (_, s) :: _ -> run s
  in
  let f = run st in
  Alcotest.(check int) "add" 7 (State.reg f.State.threads.(0) 0);
  Alcotest.(check int) "sub" 5 (State.reg f.State.threads.(0) 1);
  Alcotest.(check int) "mul" 35 (State.reg f.State.threads.(0) 2)

(* property: on random two-thread programs, SC's outcome set is contained in
   every relaxed model's — weakening the model only ADDS behaviours *)
let prop_outcome_monotonicity =
  let arb_small_program =
    (* up to 3 instructions per thread over 2 locations and 2 registers *)
    let open QCheck in
    let arb_instr =
      map
        (fun (pick, loc, reg, v) ->
          match pick mod 3 with
          | 0 -> I.load ~reg ~loc
          | 1 -> I.store ~loc ~src:(I.Imm v)
          | _ -> I.binop ~dst:reg I.Add (I.Reg reg) (I.Imm 1))
        (quad (int_range 0 2) (int_range 0 1) (int_range 0 1) (int_range 1 3))
    in
    pair (list_of_size (Gen.int_range 1 3) arb_instr) (list_of_size (Gen.int_range 1 3) arb_instr)
  in
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"SC outcomes subset of every relaxed model (random programs)"
       ~count:150 arb_small_program
       (fun (p0, p1) ->
         let st = mk [ Array.of_list p0; Array.of_list p1 ] in
         let observe s = Legacy_key.key s in
         (* capped at the plain-DFS oracle's count: an engine fault that
            makes the space unbounded stops there *)
         let outcomes d =
           let max_states = Memrel_oracle.Enumerate_reference.states d st in
           List.map fst (Memrel_machine.Enumerate.outcomes ~max_states d st ~observe).outcomes
         in
         let sc = outcomes Sem.Sc in
         List.for_all
           (fun d ->
             let other = outcomes d in
             List.for_all (fun o -> List.mem o other) sc)
           [ Sem.Tso; Sem.Pso; Sem.Wo { window = 8 } ]))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("of_model", test_of_model);
      ("SC deterministic single thread", test_sc_single_thread_deterministic);
      ("terminal states", test_terminal_no_transitions);
      ("TSO buffering and forwarding", test_tso_buffering_and_forwarding);
      ("TSO FIFO order", test_tso_fifo_order);
      ("PSO flush reordering", test_pso_reorders_flushes);
      ("TSO fence drains buffer", test_tso_fence_requires_empty_buffer);
      ("WO reorders independent ops", test_wo_reorders_independent);
      ("WO register dependence", test_wo_respects_register_dependence);
      ("WO same-location order", test_wo_respects_same_location);
      ("WO window bound", test_wo_window_bound);
      ("conflicts matrix", test_conflicts_matrix);
      ("fence one-way edges", test_fence_one_way_edges);
      ("binop arithmetic", test_binop_arithmetic);
    ]
  @ [ prop_outcome_monotonicity ]
