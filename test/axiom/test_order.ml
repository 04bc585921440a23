(* The incremental transitive-closure order underpinning every acyclicity
   axiom: accepted edges must be exactly the cycle-free ones, reachability
   must be transitively closed after every insertion, and push/pop must
   restore the closure bit-for-bit (the solver backtracks through it
   thousands of times per test). *)

module Order = Memrel_axiom.Order
module R = Memrel_oracle.Order_reference

let test_chain () =
  let o = Order.create 4 in
  Alcotest.(check bool) "0->1" true (Order.add o 0 1);
  Alcotest.(check bool) "1->2" true (Order.add o 1 2);
  Alcotest.(check bool) "2->3" true (Order.add o 2 3);
  Alcotest.(check bool) "0 reaches 3 transitively" true (Order.reaches o 0 3);
  Alcotest.(check bool) "3 does not reach 0" false (Order.reaches o 3 0);
  Alcotest.(check bool) "redundant 0->3 still accepted" true (Order.add o 0 3)

let test_cycle_rejected () =
  let o = Order.create 3 in
  ignore (Order.add o 0 1);
  ignore (Order.add o 1 2);
  Alcotest.(check bool) "2->0 closes a cycle" false (Order.add o 2 0);
  Alcotest.(check bool) "closure untouched by the rejection" false (Order.reaches o 2 0);
  Alcotest.(check bool) "self-loop rejected" false (Order.add o 1 1);
  Alcotest.(check int) "two rejections counted" 2 (Order.rejections o)

let test_push_pop () =
  let o = Order.create 3 in
  ignore (Order.add o 0 1);
  Order.push o;
  ignore (Order.add o 1 2);
  Alcotest.(check bool) "0 reaches 2 inside the snapshot" true (Order.reaches o 0 2);
  Order.pop o;
  Alcotest.(check bool) "0->1 survives the pop" true (Order.reaches o 0 1);
  Alcotest.(check bool) "1->2 rolled back" false (Order.reaches o 1 2);
  Alcotest.(check bool) "2->0 legal again after the pop" true (Order.add o 2 0)

(* Randomized equivalence against the seed's copy-based snapshots: drive
   both implementations through an identical random script of add / push /
   pop (pop only with a scope open, as every caller does) and require the
   same accept/reject verdict on every add plus identical reachability
   matrices at every step. Sizes straddle the word boundary (63-bit ints):
   n = 40 is single-word, 70 and 100 are multi-word, where the trail's
   per-word undo records earn their keep. Deterministic seeds — a failure
   reproduces. *)
let test_randomized_vs_reference () =
  List.iter
    (fun (n, seed, steps) ->
      let st = Random.State.make [| seed |] in
      let o = Order.create n and r = R.create n in
      let depth = ref 0 in
      let same_matrices step =
        for u = 0 to n - 1 do
          for v = 0 to n - 1 do
            if Order.reaches o u v <> R.reaches r u v then
              Alcotest.failf "n=%d seed=%d step %d: closures diverge at (%d,%d)" n seed step
                u v
          done
        done
      in
      for step = 1 to steps do
        (match Random.State.int st 10 with
        | 0 | 1 ->
          Order.push o;
          R.push r;
          incr depth
        | 2 when !depth > 0 ->
          Order.pop o;
          R.pop r;
          decr depth
        | _ ->
          let u = Random.State.int st n and v = Random.State.int st n in
          let a = Order.add o u v and b = R.add r u v in
          if a <> b then
            Alcotest.failf "n=%d seed=%d step %d: add %d->%d verdicts differ" n seed step u v);
        if step mod 97 = 0 then same_matrices step
      done;
      same_matrices steps;
      (* rewind everything still open: the closures must keep agreeing *)
      while !depth > 0 do
        Order.pop o;
        R.pop r;
        decr depth;
        same_matrices (-(!depth))
      done;
      Alcotest.(check int) "same rejected count" (R.rejections r)
        (Order.rejections o))
    [ (40, 11, 4000); (70, 23, 4000); (100, 37, 3000) ]

let test_bounds () =
  Alcotest.check_raises "too many vertices" (Invalid_argument "")
    (fun () ->
      try ignore (Order.create (Order.max_vertices + 1))
      with Invalid_argument _ -> raise (Invalid_argument ""));
  Alcotest.check_raises "pop without push" (Invalid_argument "")
    (fun () ->
      try Order.pop (Order.create 2) with Invalid_argument _ -> raise (Invalid_argument ""))

let suite =
  [
    Alcotest.test_case "chain accepts and closes transitively" `Quick test_chain;
    Alcotest.test_case "cycles and self-loops rejected" `Quick test_cycle_rejected;
    Alcotest.test_case "push/pop restores the closure" `Quick test_push_pop;
    Alcotest.test_case "randomized equivalence with the copy-based reference" `Quick
      test_randomized_vs_reference;
    Alcotest.test_case "bounds checked" `Quick test_bounds;
  ]
