(* Oracles for the engines in lib/. The axiomatic, plain-DFS enumeration,
   exact-arithmetic and bytewise CRC-32 references live in their own
   modules: *)

module Generate = Generate
module Enumerate_reference = Enumerate_reference
module Three_way = Three_way
module Axioms_reference = Axioms_reference
module Order_reference = Order_reference
module Bigint_reference = Bigint_reference
module Rational_reference = Rational_reference
module Crc32_reference = Crc32_reference
module Goodness_of_fit = Goodness_of_fit

(* The depth lemma's value, recomputed from a decoded state (the external
   enumerator's decoder sums it while it reads a key): instructions
   executed, plus, when stores are buffered (TSO, PSO), stores that have
   left their buffer (executed stores minus the entries still queued),
   summed over the threads. Every transition adds exactly one. *)
let state_depth ~buffered st =
  let module State = Memrel_machine.State in
  let d = ref 0 in
  Array.iter
    (fun th ->
      Array.iteri
        (fun i ins ->
          if State.is_executed th i then begin
            incr d;
            if buffered then match ins with Memrel_machine.Instr.Store _ -> incr d | _ -> ()
          end)
        th.State.prog;
      if buffered then begin
        d := !d - List.length th.State.fifo;
        Array.iter (fun q -> d := !d - List.length q) th.State.perloc
      end)
    st.State.threads;
  !d

(* Combinatorics' bounded-partition recurrence over the seed bigint, with
   its own memo table (single-domain use; [clear] empties it) *)
module Combinatorics_reference = struct
  module B = Bigint_reference

  let cache : (int * int * int, B.t) Hashtbl.t = Hashtbl.create 4096
  let clear () = Hashtbl.reset cache

  let rec bounded_at_most n k m =
    if n = 0 then B.one
    else if n < 0 || k = 0 || m = 0 then B.zero
    else
      match Hashtbl.find_opt cache (n, k, m) with
      | Some v -> v
      | None ->
        let v = B.add (bounded_at_most n k (m - 1)) (bounded_at_most (n - m) (k - 1) m) in
        Hashtbl.add cache (n, k, m) v;
        v

  let partitions_bounded x y z =
    if y = 0 then if x = 0 then B.one else B.zero
    else if x < y || x > y * z then B.zero
    else bounded_at_most (x - y) y (z - 1)
end

(* The per-trial closures that predate the zero-allocation kernels: every
   trial builds a fresh program, permutation and shift array, and runs on
   the same Par schedule as the estimators in lib/. The estimators must
   reproduce these results bit for bit. *)

module Par = Memrel_prob.Par
module Stats = Memrel_prob.Stats

let proportion ?jobs ~trials f rng =
  let successes = (Par.count ?jobs ~trials ~worker:(fun () -> f) rng).Par.value in
  Stats.proportion ~successes ~trials

let sum_float ?jobs ~trials f rng =
  (Par.run ?jobs ~trials ~init:(fun () -> 0.0) ~worker:(fun () acc r -> acc +. f r) ~merge:( +. )
     rng)
    .Par.value

module Mc = struct
  module Mc = Memrel_settling.Mc

  let estimate ?(p = 0.5) ?(m = 64) ?jobs ~trials model rng : Mc.estimate =
    let counts, sum =
      (Par.run ?jobs ~trials
         ~init:(fun () -> (Array.make (m + 1) 0, ref 0))
         ~worker:(fun () ((counts, sum) as acc) r ->
           let g = Mc.sample_gamma ~p ~m model r in
           counts.(g) <- counts.(g) + 1;
           sum := !sum + g;
           acc)
         ~merge:(fun ((c1, s1) as acc) (c2, s2) ->
           Array.iteri (fun g c -> c1.(g) <- c1.(g) + c) c2;
           s1 := !s1 + !s2;
           acc)
         rng)
        .Par.value
    in
    let bins = List.mapi (fun g c -> (g, c)) (Array.to_list counts) in
    let bins = List.filter (fun (_, c) -> c > 0) bins in
    let histogram = { Stats.bins; total = trials } in
    {
      Mc.gamma_pmf = Stats.empirical_pmf histogram;
      trials;
      mean_gamma = float_of_int !sum /. float_of_int trials;
      histogram;
    }

  let probability_b ?(p = 0.5) ?(m = 64) ?jobs ~trials ~gamma model rng =
    proportion ?jobs ~trials (fun r -> Mc.sample_gamma ~p ~m model r = gamma) rng
end

module Shift = struct
  module P = Memrel_shift.Process

  let estimate ?jobs ~trials rng gammas =
    proportion ?jobs ~trials (fun r -> (P.sample r gammas).P.disjoint) rng

  let estimate_geom ?jobs ~q ~trials rng gammas =
    proportion ?jobs ~trials (fun r -> (P.sample_geom ~q r gammas).P.disjoint) rng
end

module Joint = struct
  module J = Memrel_interleave.Joint
  module Program = Memrel_settling.Program
  module Settle = Memrel_settling.Settle
  module Window = Memrel_settling.Window

  let estimate ?p ?m ?gap ?convention ?jobs ~trials model ~n rng : J.estimate =
    let pr_no_bug, ci =
      proportion ?jobs ~trials (fun r -> J.sample ?p ?m ?gap ?convention model ~n r) rng
    in
    { J.pr_no_bug; ci; trials }

  let semi_analytic ?(p = 0.5) ?(m = 64) ?(gap = 0) ?jobs ~trials model ~n rng =
    let acc =
      sum_float ?jobs ~trials
        (fun r ->
          let prog = Program.generate_with_gap ~p r ~m ~gap in
          let exponent = ref 0 in
          for i = 1 to n - 1 do
            let pi = Settle.run model r prog in
            exponent := !exponent + (i * (Window.gamma prog pi + 2))
          done;
          Float.pow 2.0 (float_of_int (- !exponent)))
        rng
    in
    let prefactor = Memrel_prob.Rational.to_float (Memrel_shift.Exact.prefactor n) in
    let fact = Memrel_prob.Bigint.to_float (Memrel_prob.Combinatorics.factorial n) in
    prefactor *. fact *. (acc /. float_of_int trials)
end
