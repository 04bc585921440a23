module Op = Memrel_memmodel.Op
module Model = Memrel_memmodel.Model
module Fence = Memrel_memmodel.Fence
module Rng = Memrel_prob.Rng

type permutation = int array

let swap_probability model ~earlier ~later =
  if Op.same_location earlier later then 0.0
  else
    match (earlier, later) with
    | _, Op.Fence _ -> 0.0 (* fences never settle *)
    | Op.Fence f, Op.Mem _ -> if Fence.blocks_upward_pass f then 0.0 else Model.s model
    | Op.Mem { kind = ke; _ }, Op.Mem { kind = kl; _ } ->
      Model.swap_probability model ~earlier:ke ~later:kl

(* Core loop shared by [run] and [run_traced]. [order.(pos)] holds the
   initial index of the instruction currently at [pos]. Settling initial
   index [r] starts at position [r] because rounds proceed top-down and
   earlier rounds only permute positions [0 .. r-1]. *)
let settle_round model rng ops order r =
  let settling = ops.(r) in
  let pos = ref r in
  if not (Op.is_fence settling) then begin
    let continue = ref true in
    while !continue && !pos > 0 do
      let above = ops.(order.(!pos - 1)) in
      let p = swap_probability model ~earlier:above ~later:settling in
      if p > 0.0 && Rng.bernoulli rng p then begin
        order.(!pos) <- order.(!pos - 1);
        order.(!pos - 1) <- r;
        decr pos
      end
      else continue := false
    done
  end;
  !pos

let permutation_of_order order =
  let pi = Array.make (Array.length order) 0 in
  Array.iteri (fun pos init -> pi.(init) <- pos) order;
  pi

let run model rng prog =
  let ops = Program.ops prog in
  let n = Array.length ops in
  let order = Array.init n (fun i -> i) in
  for r = 1 to n - 1 do
    ignore (settle_round model rng ops order r)
  done;
  permutation_of_order order

type snapshot = {
  round : int;
  start_pos : int;
  stop_pos : int;
  order : Op.t array;
}

let run_traced model rng prog =
  let ops = Program.ops prog in
  let n = Array.length ops in
  let order = Array.init n (fun i -> i) in
  let snaps = ref [] in
  for r = 1 to n - 1 do
    let stop = settle_round model rng ops order r in
    snaps :=
      { round = r; start_pos = r; stop_pos = stop; order = Array.map (fun i -> ops.(i)) order }
      :: !snaps
  done;
  (permutation_of_order order, List.rev !snaps)

let run_prefix model rng prog ~rounds =
  let ops = Program.ops prog in
  let n = Array.length ops in
  if rounds < 0 || rounds >= n then invalid_arg "Settle.run_prefix: rounds out of range";
  let order = Array.init n (fun i -> i) in
  for r = 1 to rounds do
    ignore (settle_round model rng ops order r)
  done;
  Array.map (fun i -> ops.(i)) order
