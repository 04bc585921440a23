module Stats = Memrel_prob.Stats
module Par = Memrel_prob.Par

type estimate = {
  gamma_pmf : (int * float) list;
  trials : int;
  mean_gamma : float;
  histogram : Stats.histogram;
}

let default_m = 64

let sample_gamma ?(p = 0.5) ?(m = default_m) model rng =
  let prog = Program.generate ~p rng ~m in
  let pi = Settle.run model rng prog in
  Window.gamma prog pi

(* per-chunk accumulator: a dense count array (gamma ranges over 0..m for
   gap-free programs) plus the running gamma sum; counts merge by addition
   so the merged histogram is independent of chunk execution order *)
type gamma_acc = { counts : int array; mutable sum : int }

let gamma_acc_merge a b =
  Array.iteri (fun g c -> a.counts.(g) <- a.counts.(g) + c) b.counts;
  a.sum <- a.sum + b.sum;
  a

let estimate_of_acc ~trials acc =
  if trials = 0 then
    (* nothing completed before the budget tripped: an honestly empty
       estimate rather than 0/0 *)
    let histogram = { Stats.bins = []; total = 0 } in
    { gamma_pmf = []; trials = 0; mean_gamma = Float.nan; histogram }
  else begin
    let bins = ref [] in
    for g = Array.length acc.counts - 1 downto 0 do
      if acc.counts.(g) > 0 then bins := (g, acc.counts.(g)) :: !bins
    done;
    let histogram = { Stats.bins = !bins; total = trials } in
    {
      gamma_pmf = Stats.empirical_pmf histogram;
      trials;
      mean_gamma = float_of_int acc.sum /. float_of_int trials;
      histogram;
    }
  end

let estimate_governed ?(p = 0.5) ?(m = default_m) ?jobs ?budget ?checkpoint ?checkpoint_every
    ?resume ~trials model rng =
  if trials <= 0 then invalid_arg "Mc.estimate: trials must be positive";
  let r =
    Par.run ?jobs ?budget ?checkpoint ?checkpoint_every ?resume
      ~identity:("mc.estimate " ^ Scratch.identity ~p ~m model)
      ~trials
      ~init:(fun () -> { counts = Array.make (m + 1) 0; sum = 0 })
      ~worker:(fun () ->
        let scratch = Scratch.create ~p ~m model in
        fun acc r ->
          let g = Scratch.sample_gamma scratch r in
          acc.counts.(g) <- acc.counts.(g) + 1;
          acc.sum <- acc.sum + g;
          acc)
      ~merge:gamma_acc_merge rng
  in
  (* the estimate is over the trials that actually ran *)
  { r with Par.value = estimate_of_acc ~trials:r.Par.trials_done r.Par.value }

let estimate ?p ?m ?jobs ~trials model rng =
  (estimate_governed ?p ?m ?jobs ~trials model rng).Par.value

let probability_b_adaptive ?(p = 0.5) ?(m = default_m) ?jobs ?budget ?report
    ?target_width ?checkpoint ?checkpoint_every ?resume ~max_trials ~gamma model rng =
  if max_trials <= 0 then invalid_arg "Mc.probability_b_adaptive: max_trials must be positive";
  let r =
    Par.count ?jobs ?budget ?target_width ?report ?checkpoint ?checkpoint_every ?resume
      ~identity:(Printf.sprintf "mc.probability_b %s gamma=%d" (Scratch.identity ~p ~m model) gamma)
      ~trials:max_trials
      ~worker:(fun () ->
        let scratch = Scratch.create ~p ~m model in
        fun r -> Scratch.sample_gamma scratch r = gamma)
      rng
  in
  { r with Par.value = Stats.proportion ~successes:r.Par.value ~trials:r.Par.trials_done }

let probability_b ?p ?m ?jobs ~trials ~gamma model rng =
  if trials <= 0 then invalid_arg "Mc.probability_b: trials must be positive";
  (probability_b_adaptive ?p ?m ?jobs ~max_trials:trials ~gamma model rng).Par.value
