module Rng = Memrel_prob.Rng
module Par = Memrel_prob.Par
module Stats = Memrel_prob.Stats

type sample = { shifts : int array; disjoint : bool }

let disjoint ~shifts ~gammas =
  let n = Array.length shifts in
  if n <> Array.length gammas then invalid_arg "Process.disjoint: length mismatch";
  let idx = Array.init n (fun i -> i) in
  Array.sort (fun a b -> compare shifts.(a) shifts.(b)) idx;
  let ok = ref true in
  for j = 0 to n - 2 do
    let prev = idx.(j) and next = idx.(j + 1) in
    if shifts.(next) < shifts.(prev) + gammas.(prev) + 1 then ok := false
  done;
  !ok

(* Zero-allocation disjointness on caller-owned buffers: insertion sort of
   [idx] keyed by shift (n is small; no closure, no fresh index array), then
   the same adjacent-pair check as [disjoint]. Equal shifts always overlap
   — the verdict does not depend on how a sort orders ties — so this agrees
   with [disjoint] exactly, whatever either sort does with ties. *)
let disjoint_scratch ~shifts ~idx ~gammas =
  let n = Array.length gammas in
  for i = 0 to n - 1 do
    Array.unsafe_set idx i i
  done;
  for i = 1 to n - 1 do
    let key = Array.unsafe_get idx i in
    let ks = Array.unsafe_get shifts key in
    let j = ref (i - 1) in
    while !j >= 0 && Array.unsafe_get shifts (Array.unsafe_get idx !j) > ks do
      Array.unsafe_set idx (!j + 1) (Array.unsafe_get idx !j);
      decr j
    done;
    Array.unsafe_set idx (!j + 1) key
  done;
  let ok = ref true in
  for j = 0 to n - 2 do
    let prev = Array.unsafe_get idx j and next = Array.unsafe_get idx (j + 1) in
    if
      Array.unsafe_get shifts next
      < Array.unsafe_get shifts prev + Array.unsafe_get gammas prev + 1
    then ok := false
  done;
  !ok

let check_gammas name gammas =
  Array.iter (fun g -> if g < 0 then invalid_arg (name ^ ": negative segment length")) gammas

let sample rng gammas =
  check_gammas "Process.sample" gammas;
  let shifts = Array.map (fun _ -> Rng.geometric_half rng) gammas in
  { shifts; disjoint = disjoint ~shifts ~gammas }

let sample_geom ~q rng gammas =
  if not (q > 0.0 && q < 1.0) then invalid_arg "Process.sample_geom: q must be in (0,1)";
  check_gammas "Process.sample_geom" gammas;
  (* geometric(q) failures-before-success with success probability 1 - q *)
  let shifts = Array.map (fun _ -> Rng.geometric rng (1.0 -. q)) gammas in
  { shifts; disjoint = disjoint ~shifts ~gammas }

(* streaming workers: scratch allocated once per worker domain, then each
   trial draws the shifts in index order (the same sequence as [sample]'s
   [Array.map]) and checks disjointness in place *)
let worker_half gammas () =
  let n = Array.length gammas in
  let shifts = Array.make n 0 and idx = Array.make n 0 in
  fun r ->
    for i = 0 to n - 1 do
      Array.unsafe_set shifts i (Rng.geometric_half r)
    done;
    disjoint_scratch ~shifts ~idx ~gammas

let worker_geom ~q gammas () =
  let n = Array.length gammas in
  let p = 1.0 -. q in
  let shifts = Array.make n 0 and idx = Array.make n 0 in
  fun r ->
    for i = 0 to n - 1 do
      Array.unsafe_set shifts i (Rng.geometric r p)
    done;
    disjoint_scratch ~shifts ~idx ~gammas

let proportion (r : int Par.outcome) =
  { r with Par.value = Stats.proportion ~successes:r.Par.value ~trials:r.Par.trials_done }

let estimate_adaptive ?jobs ?budget ?report ?target_width ?checkpoint ?checkpoint_every
    ?resume ~max_trials rng gammas =
  if max_trials <= 0 then invalid_arg "Process.estimate_adaptive: max_trials must be positive";
  check_gammas "Process.estimate_adaptive" gammas;
  let identity =
    "shift.estimate gammas="
    ^ String.concat "," (Array.to_list (Array.map string_of_int gammas))
  in
  proportion
    (Par.count ?jobs ?budget ?target_width ?report ?checkpoint ?checkpoint_every
       ?resume ~identity ~trials:max_trials ~worker:(worker_half gammas) rng)

let estimate ?jobs ~trials rng gammas =
  if trials <= 0 then invalid_arg "Process.estimate: trials must be positive";
  (estimate_adaptive ?jobs ~max_trials:trials rng gammas).Par.value

let estimate_geom ?jobs ~q ~trials rng gammas =
  if trials <= 0 then invalid_arg "Process.estimate_geom: trials must be positive";
  if not (q > 0.0 && q < 1.0) then invalid_arg "Process.sample_geom: q must be in (0,1)";
  check_gammas "Process.estimate_geom" gammas;
  (proportion (Par.count ?jobs ~trials ~worker:(worker_geom ~q gammas) rng)).Par.value
