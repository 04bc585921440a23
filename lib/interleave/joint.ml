module Rng = Memrel_prob.Rng
module Par = Memrel_prob.Par
module Stats = Memrel_prob.Stats
module Settle = Memrel_settling.Settle
module Window = Memrel_settling.Window
module Program = Memrel_settling.Program
module Scratch = Memrel_settling.Scratch
module Shift = Memrel_shift.Process

type convention = [ `Paper | `Strict ]

type estimate = {
  pr_no_bug : float;
  ci : Stats.interval;
  trials : int;
}

let default_m = 64

let check_n n = if n < 2 then invalid_arg "Joint: n >= 2 threads required"

let sample ?(p = 0.5) ?(m = default_m) ?(gap = 0) ?(convention = `Paper) model ~n rng =
  check_n n;
  let prog = Program.generate_with_gap ~p rng ~m ~gap in
  match convention with
  | `Paper ->
    let gammas =
      Array.init n (fun _ ->
          let pi = Settle.run model rng prog in
          Window.gamma prog pi + 2)
    in
    (Shift.sample rng gammas).disjoint
  | `Strict ->
    (* absolute inclusive windows [load_pos - eta, store_pos - eta]; the bug
       manifests when two windows share an integer time step *)
    let windows =
      Array.init n (fun _ ->
          let pi = Settle.run model rng prog in
          let load_pos, store_pos = Window.bounds prog pi in
          let eta = Rng.geometric_half rng in
          (load_pos - eta, store_pos - eta))
    in
    Array.sort compare windows;
    let ok = ref true in
    for i = 0 to n - 2 do
      let _, bottom = windows.(i) and top, _ = windows.(i + 1) in
      if top <= bottom then ok := false
    done;
    !ok

(* streaming per-trial draws on per-worker scratch, replaying [sample]'s
   exact draw sequence: program Bernoullis, then per thread the settle walk
   (and for [`Strict] its shift), then for [`Paper] the n shifts *)
let sample_worker ~p ~m ~gap ~convention model ~n () =
  let scratch = Scratch.create ~p ~gap ~m model in
  match convention with
  | `Paper ->
    let gammas = Array.make n 0 in
    let shifts = Array.make n 0 in
    let idx = Array.make n 0 in
    fun r ->
      Scratch.generate scratch r;
      for i = 0 to n - 1 do
        Scratch.settle scratch r;
        Array.unsafe_set gammas i (Scratch.gamma scratch + 2)
      done;
      for i = 0 to n - 1 do
        Array.unsafe_set shifts i (Rng.geometric_half r)
      done;
      Shift.disjoint_scratch ~shifts ~idx ~gammas
  | `Strict ->
    let tops = Array.make n 0 in
    let bottoms = Array.make n 0 in
    fun r ->
      Scratch.generate scratch r;
      for i = 0 to n - 1 do
        Scratch.settle scratch r;
        let eta = Rng.geometric_half r in
        Array.unsafe_set tops i (Scratch.load_pos scratch - eta);
        Array.unsafe_set bottoms i (Scratch.store_pos scratch - eta)
      done;
      (* insertion sort of the (top, bottom) pairs, lexicographic — the
         order [Array.sort compare] on tuples produces; the adjacent check
         only reads values, so any sort of equal pairs agrees *)
      for i = 1 to n - 1 do
        let t0 = Array.unsafe_get tops i and b0 = Array.unsafe_get bottoms i in
        let j = ref (i - 1) in
        while
          !j >= 0
          && (Array.unsafe_get tops !j > t0
              || (Array.unsafe_get tops !j = t0 && Array.unsafe_get bottoms !j > b0))
        do
          Array.unsafe_set tops (!j + 1) (Array.unsafe_get tops !j);
          Array.unsafe_set bottoms (!j + 1) (Array.unsafe_get bottoms !j);
          decr j
        done;
        Array.unsafe_set tops (!j + 1) t0;
        Array.unsafe_set bottoms (!j + 1) b0
      done;
      let ok = ref true in
      for i = 0 to n - 2 do
        if Array.unsafe_get tops (i + 1) <= Array.unsafe_get bottoms i then ok := false
      done;
      !ok

let estimate_adaptive ?(p = 0.5) ?(m = default_m) ?(gap = 0) ?(convention = `Paper) ?jobs
    ?budget ?report ?target_width ?checkpoint ?checkpoint_every ?resume ~max_trials model
    ~n rng =
  check_n n;
  if max_trials <= 0 then invalid_arg "Joint.estimate_adaptive: max_trials must be positive";
  let identity =
    Printf.sprintf "joint.estimate %s n=%d convention=%s" (Scratch.identity ~p ~gap ~m model) n
      (match convention with `Paper -> "paper" | `Strict -> "strict")
  in
  let r =
    Par.count ?jobs ?budget ?target_width ?report ?checkpoint ?checkpoint_every ?resume
      ~identity ~trials:max_trials
      ~worker:(sample_worker ~p ~m ~gap ~convention model ~n)
      rng
  in
  let trials = r.Par.trials_done in
  let pr_no_bug, ci = Stats.proportion ~successes:r.Par.value ~trials in
  { r with Par.value = { pr_no_bug; ci; trials } }

let estimate ?p ?m ?gap ?convention ?jobs ~trials model ~n rng =
  check_n n;
  if trials <= 0 then invalid_arg "Joint.estimate: trials must be positive";
  (estimate_adaptive ?p ?m ?gap ?convention ?jobs ~max_trials:trials model ~n rng).Par.value

let semi_analytic ?(p = 0.5) ?(m = default_m) ?(gap = 0) ?jobs ~trials model ~n rng =
  check_n n;
  if trials <= 0 then invalid_arg "Joint.semi_analytic: trials must be positive";
  (* E[prod_{i=1}^{n-1} 2^(-i Gamma_i)] over the joint (shared-program) law
     of the window lengths; Theorem 6.1's exchangeability lets us fix the
     assignment of threads to exponents. Par's fixed fold order keeps the
     float sum bit-identical at every jobs count. *)
  let s =
    Par.run ?jobs ~trials
      ~init:(fun () -> 0.0)
      ~worker:(fun () ->
        let scratch = Scratch.create ~p ~gap ~m model in
        fun acc r ->
          Scratch.generate scratch r;
          let exponent = ref 0 in
          for i = 1 to n - 1 do
            Scratch.settle scratch r;
            exponent := !exponent + (i * (Scratch.gamma scratch + 2))
          done;
          acc +. Float.pow 2.0 (float_of_int (- !exponent)))
      ~merge:( +. ) rng
  in
  let mean = s.Par.value /. float_of_int trials in
  let prefactor = Memrel_prob.Rational.to_float (Memrel_shift.Exact.prefactor n) in
  let fact = Memrel_prob.Bigint.to_float (Memrel_prob.Combinatorics.factorial n) in
  prefactor *. fact *. mean
