module Settle = Memrel_settling.Settle
module Program = Memrel_settling.Program
module Window = Memrel_settling.Window
module Op = Memrel_memmodel.Op
module Model = Memrel_memmodel.Model
module Fence = Memrel_memmodel.Fence
module Rng = Memrel_prob.Rng

(* the instructions of [prog] in the settled order [pi] gives them *)
let final_order prog pi =
  let ops = Program.ops prog in
  let out = Array.make (Array.length ops) ops.(0) in
  Array.iteri (fun init pos -> out.(pos) <- ops.(init)) pi;
  out

(* whether [pi] is a permutation of [0 .. n-1] *)
let is_valid_permutation pi =
  let seen = Array.make (Array.length pi) false in
  Array.for_all
    (fun p ->
      let fresh = p >= 0 && p < Array.length pi && not seen.(p) in
      if fresh then seen.(p) <- true;
      fresh)
    pi

let test_sc_is_identity () =
  let rng = Rng.create 1 in
  for _ = 1 to 50 do
    let prog = Program.generate rng ~m:20 in
    let pi = Settle.run Model.sc rng prog in
    Alcotest.(check (array int)) "SC never reorders" (Array.init 22 (fun i -> i)) pi
  done

let test_permutation_validity () =
  let rng = Rng.create 2 in
  List.iter
    (fun model ->
      for _ = 1 to 50 do
        let prog = Program.generate rng ~m:30 in
        let pi = Settle.run model rng prog in
        Alcotest.(check bool) (Model.name model ^ " valid perm") true
          (is_valid_permutation pi)
      done)
    Model.all_standard

let test_critical_store_never_passes_load () =
  let rng = Rng.create 3 in
  List.iter
    (fun model ->
      for _ = 1 to 200 do
        let prog = Program.generate rng ~m:20 in
        let pi = Settle.run model rng prog in
        let lp = pi.(Program.critical_load_index prog)
        and sp = pi.(Program.critical_store_index prog) in
        if sp <= lp then Alcotest.fail (Model.name model ^ ": store passed load")
      done)
    Model.all_standard

let test_tso_only_loads_move () =
  (* under TSO a ST's final position can only be >= its initial position
     (pushed down by loads passing it), never above anything it preceded *)
  let rng = Rng.create 4 in
  for _ = 1 to 200 do
    let prog = Program.generate rng ~m:20 in
    let pi = Settle.run (Model.tso ()) rng prog in
    for i = 0 to Program.length prog - 1 do
      match Op.kind_of (Program.op prog i) with
      | Some Op.ST -> if pi.(i) < i then Alcotest.fail "ST moved up under TSO"
      | _ -> ()
    done
  done

let test_tso_relative_order_preserved_among_sts () =
  let rng = Rng.create 5 in
  for _ = 1 to 100 do
    let prog = Program.generate rng ~m:20 in
    let pi = Settle.run (Model.tso ()) rng prog in
    let st_positions =
      List.filter_map
        (fun i ->
          match Op.kind_of (Program.op prog i) with Some Op.ST -> Some pi.(i) | _ -> None)
        (List.init (Program.length prog) Fun.id)
    in
    if not (List.sort compare st_positions = st_positions) then
      Alcotest.fail "ST/ST order broken under TSO"
  done

let test_pso_preserves_loads_order () =
  (* PSO relaxes ST/ST and ST/LD but never lets a ST pass a LD, nor LD pass LD *)
  let rng = Rng.create 6 in
  for _ = 1 to 100 do
    let prog = Program.generate rng ~m:20 in
    let pi = Settle.run (Model.pso ()) rng prog in
    let ld_positions =
      List.filter_map
        (fun i ->
          match Op.kind_of (Program.op prog i) with Some Op.LD -> Some pi.(i) | _ -> None)
        (List.init (Program.length prog) Fun.id)
    in
    if not (List.sort compare ld_positions = ld_positions) then
      Alcotest.fail "LD/LD order broken under PSO"
  done

let test_deterministic_under_seed () =
  let prog = Program.of_kinds [ Op.ST; Op.LD; Op.ST; Op.ST; Op.LD ] in
  let run () = Settle.run (Model.wo ()) (Rng.create 99) prog in
  Alcotest.(check (array int)) "same seed same permutation" (run ()) (run ())

let test_swap_probability_rules () =
  let tso = Model.tso () in
  Alcotest.(check (float 0.0)) "TSO: LD over ST" 0.5
    (Settle.swap_probability tso ~earlier:(Op.plain Op.ST) ~later:(Op.plain Op.LD));
  Alcotest.(check (float 0.0)) "TSO: ST over ST" 0.0
    (Settle.swap_probability tso ~earlier:(Op.plain Op.ST) ~later:(Op.plain Op.ST));
  Alcotest.(check (float 0.0)) "critical pair same location" 0.0
    (Settle.swap_probability (Model.wo ()) ~earlier:Op.critical_load ~later:Op.critical_store);
  Alcotest.(check (float 0.0)) "fence never settles" 0.0
    (Settle.swap_probability (Model.wo ()) ~earlier:(Op.plain Op.LD) ~later:(Op.fence Fence.Release));
  Alcotest.(check (float 0.0)) "acquire blocks passers" 0.0
    (Settle.swap_probability (Model.wo ()) ~earlier:(Op.fence Fence.Acquire) ~later:(Op.plain Op.LD));
  Alcotest.(check (float 0.0)) "release lets passers through at s" 0.5
    (Settle.swap_probability (Model.wo ()) ~earlier:(Op.fence Fence.Release) ~later:(Op.plain Op.LD))

let test_fences_stay_put () =
  let rng = Rng.create 7 in
  for _ = 1 to 100 do
    let prog =
      Program.with_fences ~every:3 ~kind:Fence.Acquire (Program.generate rng ~m:12)
    in
    let pi = Settle.run (Model.wo ()) rng prog in
    for i = 0 to Program.length prog - 1 do
      if Op.is_fence (Program.op prog i) then begin
        (* a fence can be pushed down by settlers from below but never rises *)
        if pi.(i) < i then Alcotest.fail "fence moved up"
      end
    done
  done

let test_acquire_fence_blocks_window () =
  (* an acquire fence directly above the critical load pins it: gamma = 0 *)
  let prog =
    Program.of_ops
      [ Op.plain Op.ST; Op.plain Op.ST; Op.fence Fence.Acquire; Op.critical_load;
        Op.critical_store ]
  in
  let rng = Rng.create 8 in
  for _ = 1 to 100 do
    let pi = Settle.run (Model.wo ()) rng prog in
    Alcotest.(check int) "gamma pinned to 0" 0 (Window.gamma prog pi)
  done

let test_traced_consistency () =
  let rng = Rng.create 9 in
  let prog = Program.generate rng ~m:10 in
  let rng_a = Rng.create 55 and rng_b = Rng.create 55 in
  let pi = Settle.run (Model.tso ()) rng_a prog in
  let pi_traced, snaps = Settle.run_traced (Model.tso ()) rng_b prog in
  Alcotest.(check (array int)) "traced permutation identical" pi pi_traced;
  Alcotest.(check int) "one snapshot per round" (Program.length prog - 1) (List.length snaps);
  (* each snapshot's order is a permutation of the program *)
  List.iter
    (fun (s : Settle.snapshot) ->
      let chars = Array.map Op.to_char s.order in
      let expected = Array.init (Program.length prog) (fun i -> Op.to_char (Program.op prog i)) in
      Array.sort compare chars;
      Array.sort compare expected;
      Alcotest.(check (array char)) "snapshot multiset" expected chars;
      Alcotest.(check bool) "stop <= start" true (s.stop_pos <= s.start_pos))
    snaps;
  (* the last snapshot equals the final order *)
  let last = List.nth snaps (List.length snaps - 1) in
  Alcotest.(check (array char)) "final order"
    (Array.map Op.to_char (final_order prog pi))
    (Array.map Op.to_char last.order)

let test_final_order_roundtrip () =
  let rng = Rng.create 10 in
  let prog = Program.generate rng ~m:15 in
  let pi = Settle.run (Model.wo ()) rng prog in
  let order = final_order prog pi in
  Array.iteri (fun init pos -> Alcotest.(check char) "op placed at pi(i)"
      (Op.to_char (Program.op prog init)) (Op.to_char order.(pos))) pi

(* property: permutations only ever move instructions up (settling is an
   upward process), i.e. pi(i) <= i for every instruction *)
let prop_moves_up =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~name:"settling only moves instructions up relative to the tail"
       ~count:200
       QCheck.(pair (int_range 0 10000) (int_range 0 25))
       (fun (seed, m) ->
         let rng = Rng.create seed in
         let prog = Program.generate rng ~m in
         let model = List.nth Model.all_standard (seed mod 4) in
         let pi = Settle.run model rng prog in
         (* an instruction can be pushed down only by later-settling
            instructions that passed it; the LAST instruction can never be
            pushed down *)
         is_valid_permutation pi
         && pi.(Program.length prog - 1) <= Program.length prog - 1))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("SC is the identity", test_sc_is_identity);
      ("permutations valid", test_permutation_validity);
      ("critical store never passes critical load", test_critical_store_never_passes_load);
      ("TSO: stores never rise", test_tso_only_loads_move);
      ("TSO: ST/ST order preserved", test_tso_relative_order_preserved_among_sts);
      ("PSO: LD/LD order preserved", test_pso_preserves_loads_order);
      ("deterministic under seed", test_deterministic_under_seed);
      ("swap probability rules", test_swap_probability_rules);
      ("fences stay put", test_fences_stay_put);
      ("acquire fence pins the window", test_acquire_fence_blocks_window);
      ("traced run consistent", test_traced_consistency);
      ("final_order roundtrip", test_final_order_roundtrip);
    ]
  @ [ prop_moves_up ]
