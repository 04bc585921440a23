(* estimate-sweep: the paper's headline probabilities through the adaptive
   estimators at jobs=1, each checked against its exact value; and the
   traced run, which re-runs the per-trial kernels on Par's own chunk
   schedule (same seeds, same trial counts) so kernel time and Par's
   streaming/stopping overhead separate. *)

open Memrel

type kernel =
  | Settling of { model : Model.t; gamma : int }
  | Joint2 of Model.t
  | Shift2 of int array

type estimate = {
  name : string;
  kernel : kernel;
  exact : float * float;  (** the paper's value, or its bracket *)
}

let q a b = float_of_int a /. float_of_int b

(* Theorem 4.1 (Pr[B_gamma]), Theorem 6.2 (Pr[A] at n = 2) and Theorem 5.1
   (shift disjointness). Pr[B_1] under TSO is the exact series value 5/21
   (Analytic.b_tso_series 1), inside the paper's bracket; Pr[A] under TSO
   is the paper's bracket. *)
let sweep =
  [
    { name = "b0_tso"; kernel = Settling { model = Model.tso (); gamma = 0 }; exact = (q 2 3, q 2 3) };
    { name = "b0_wo"; kernel = Settling { model = Model.wo (); gamma = 0 }; exact = (q 2 3, q 2 3) };
    { name = "b1_tso"; kernel = Settling { model = Model.tso (); gamma = 1 }; exact = (q 5 21, q 5 21) };
    { name = "b1_wo"; kernel = Settling { model = Model.wo (); gamma = 1 }; exact = (q 1 6, q 1 6) };
    { name = "a2_sc"; kernel = Joint2 Model.sc; exact = (q 1 6, q 1 6) };
    { name = "a2_tso"; kernel = Joint2 (Model.tso ()); exact = (q 58 441, q 58 441 +. q 1 189) };
    { name = "a2_wo"; kernel = Joint2 (Model.wo ()); exact = (q 7 54, q 7 54) };
    { name = "shift_1_1"; kernel = Shift2 [| 1; 1 |]; exact = (q 1 3, q 1 3) };
  ]

let max_trials = 50_000_000

(* An estimate must lie within k half-widths of its exact value. With eight
   estimates a run should false-alarm at most 1e-3 of the time: 1.25e-4 per
   estimate, two-sided z = 3.84, and a half-width is 1.96 sigma. *)
let k_half_widths = 2.0

let adaptive e ~seed ~width =
  let rng = Rng.create seed in
  match e.kernel with
  | Settling { model; gamma } ->
    let s =
      Window_mc.probability_b_adaptive ~jobs:1 ~target_width:width ~max_trials ~gamma model rng
    in
    let point, ci = s.Par.value in
    (point, ci, s.Par.trials_done, s.Par.target_met)
  | Joint2 model ->
    let s = Joint.estimate_adaptive ~jobs:1 ~target_width:width ~max_trials model ~n:2 rng in
    (s.Par.value.Joint.pr_no_bug, s.Par.value.Joint.ci, s.Par.trials_done, s.Par.target_met)
  | Shift2 gammas ->
    let s = Shift.estimate_adaptive ~jobs:1 ~target_width:width ~max_trials rng gammas in
    let point, ci = s.Par.value in
    (point, ci, s.Par.trials_done, s.Par.target_met)

let check e ~point ~(ci : Stats.interval) ~target_met =
  let lo, hi = e.exact in
  let slack = k_half_widths *. (ci.Stats.hi -. ci.Stats.lo) /. 2.0 in
  if not target_met then Report.fail "%s: width not reached within %d trials" e.name max_trials;
  if point < lo -. slack || point > hi +. slack then
    Report.fail "%s: estimate %.6f outside [%.6f, %.6f] +- %.6f" e.name point lo hi slack

let seed_of ~seed i = (seed * 16) + i

(* Untraced: what a user of the estimators sees. *)
let run ~seed ~width =
  let total = ref 0 in
  List.iteri
    (fun i e ->
      let cpu () = let t = Unix.times () in t.Unix.tms_utime +. t.Unix.tms_stime in
      let c0 = cpu () in
      let (point, ci, trials, target_met), wall =
        Tracer.untraced (fun () -> adaptive e ~seed:(seed_of ~seed i) ~width)
      in
      let c1 = cpu () in
      check e ~point ~ci ~target_met;
      total := !total + trials;
      Report.num (e.name ^ ".point") point;
      Report.int (e.name ^ ".trials") trials;
      Report.num (e.name ^ ".wall_s") wall;
      Report.num (e.name ^ ".cpu_s") (c1 -. c0))
    sweep;
  Report.str "names" (String.concat "," (List.map (fun e -> e.name) sweep));
  Report.int "trials" !total;
  Report.num "peak_rss_mb" (Report.vm_hwm_mb ());
  Report.print_with_failures ()

(* -- traced kernels ----------------------------------------------------- *)

let l_scratch = Tracer.layer "scratch.trial"
let l_joint = Tracer.layer "joint.trial"
let l_shift = Tracer.layer "shift.trial"
let l_rng = Tracer.layer "rng.bits64"
let l_pass = Tracer.layer "estimate.kernels"
let l_par = Tracer.layer "par.count_streaming"

let kernel_layer = function
  | Settling _ -> l_scratch
  | Joint2 _ -> l_joint
  | Shift2 _ -> l_shift

(* The per-trial function each estimator hands Par, composed here from the
   same public pieces (Scratch for program generation and settling, the
   geometric shifts, the in-place disjointness check). *)
let trial_fn = function
  | Settling { model; gamma } ->
    let s = Window_scratch.create ~m:64 model in
    fun r -> Window_scratch.sample_gamma s r = gamma
  | Joint2 model ->
    let s = Window_scratch.create ~m:64 model in
    let gammas = Array.make 2 0 and shifts = Array.make 2 0 and idx = Array.make 2 0 in
    fun r ->
      Window_scratch.generate s r;
      for i = 0 to 1 do
        Window_scratch.settle s r;
        gammas.(i) <- Window_scratch.gamma s + 2
      done;
      for i = 0 to 1 do
        shifts.(i) <- Rng.geometric_half r
      done;
      Shift.disjoint_scratch ~shifts ~idx ~gammas
  | Shift2 gammas ->
    let shifts = Array.make (Array.length gammas) 0 and idx = Array.make (Array.length gammas) 0 in
    fun r ->
      for i = 0 to Array.length gammas - 1 do
        shifts.(i) <- Rng.geometric_half r
      done;
      Shift.disjoint_scratch ~shifts ~idx ~gammas

(* [trials] trials on Par's schedule: one bits64 draw keys the chunk
   substreams, chunk i draws from substream i. One span per chunk. *)
let kernel_loop e ~seed ~trials =
  let f = trial_fn e.kernel and l = kernel_layer e.kernel in
  let base = Rng.bits64 (Rng.create seed) in
  let chunk = Par.default_chunk in
  let successes = ref 0 in
  let chunks = (trials + chunk - 1) / chunk in
  for id = 0 to chunks - 1 do
    Tracer.request_id := id;
    let r = Rng.substream base id in
    Tracer.enter l;
    for _ = 1 to min chunk (trials - (id * chunk)) do
      if f r then incr successes
    done;
    ignore (Tracer.leave ())
  done;
  !successes

(* Rounds of (estimator, traced replica, untraced replica) per estimate.
   Each figure is its minimum over the rounds: a host stall between two
   adjacent runs would otherwise move the coverage by more than Par's
   share of the wall. *)
let rounds = 3

let trace ~seed ~width ~spans =
  let runs = Array.of_list sweep in
  let n = Array.length runs in
  let best () = Array.make n infinity in
  let par_s = best () and kernel_s = best () and traced_s = best () and untraced_s = best () in
  let trials = Array.make n 0 in
  let keep_min a i v = a.(i) <- Float.min a.(i) v in
  let g0 = Gc.quick_stat () in
  for round = 1 to rounds do
    Array.iteri
      (fun i e ->
        let seed = seed_of ~seed i in
        (* the estimator itself: the wall the coverage is of *)
        let (point, ci, t, target_met), wall =
          Tracer.traced l_par (fun () -> adaptive e ~seed ~width)
        in
        let s, wall_t = Tracer.traced l_pass (fun () -> kernel_loop e ~seed ~trials:t) in
        let _, wall_u = Tracer.untraced (fun () -> kernel_loop e ~seed ~trials:t) in
        if round = 1 then begin
          check e ~point ~ci ~target_met;
          trials.(i) <- t;
          (* the kernel replica must count exactly what Par counted *)
          if s <> Float.to_int (Float.round (point *. float_of_int t)) then
            Report.fail "%s: kernel replay counted %d of %d, the estimator %.6f" e.name s t point
        end;
        keep_min par_s i wall;
        keep_min traced_s i wall_t;
        keep_min untraced_s i wall_u;
        keep_min kernel_s i
          (Tracer.corrected_self_s ~overhead_s:(wall_t -. wall_u) (kernel_layer e.kernel)))
      runs
  done;
  let g1 = Gc.quick_stat () in
  let sum a = Array.fold_left ( +. ) 0.0 a in
  (* coverage of the estimators' own wall: the kernels explain it, Par's
     streaming and stopping are the remainder *)
  let par_wall = sum par_s and kernels = sum kernel_s in
  Serve_bench.coverage ~wall:par_wall ~explained:kernels;
  Report.num "trace.overhead_s" (sum traced_s -. sum untraced_s);
  Report.gc_fields g0 g1;
  let per_trial l =
    let s = ref 0.0 and t = ref 0 in
    Array.iteri
      (fun i e ->
        if kernel_layer e.kernel = l then begin
          s := !s +. kernel_s.(i);
          t := !t + trials.(i)
        end)
      runs;
    !s *. 1e9 /. float_of_int (max 1 !t)
  in
  Report.num "scratch.trial_ns" (per_trial l_scratch);
  Report.num "joint.trial_ns" (per_trial l_joint);
  Report.num "shift.trial_ns" (per_trial l_shift);
  let total = Array.fold_left ( + ) 0 trials in
  Report.int "par.trials" total;
  Report.num "par.trials_per_s" (float_of_int total /. par_wall);
  Report.num "par.overhead_ratio" (1.0 -. (kernels /. par_wall));
  let draws = 4_000_000 in
  let r = Rng.create seed in
  let (), _ =
    Tracer.traced l_rng (fun () ->
        for _ = 1 to draws do
          ignore (Sys.opaque_identity (Rng.bits64 r))
        done)
  in
  Report.num "rng.bits64_ns" (float_of_int Tracer.self_ns.(l_rng) /. float_of_int draws);
  Report.str "names" (String.concat "," (List.map (fun e -> e.name) sweep));
  Tracer.write_jsonl spans;
  Report.print_with_failures ()
