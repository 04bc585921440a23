module P = Protocol
module Model = Memrel_memmodel.Model
module Budget = Memrel_prob.Budget
module Rng = Memrel_prob.Rng
module Litmus = Memrel_machine.Litmus
module Enumerate = Memrel_machine.Enumerate
module Extmem = Memrel_machine.Extmem
module Solver = Memrel_axiom.Solver
module Mc = Memrel_settling.Mc
module Process = Memrel_shift.Process
module Joint = Memrel_interleave.Joint

type caps = {
  max_deadline_s : float option;
  max_work_cap : int option;
  max_mem_mb_cap : int option;
}

let no_caps = { max_deadline_s = None; max_work_cap = None; max_mem_mb_cap = None }

type extmem = { spill_root : string; mem_budget_bytes : int }

type error = { code : P.error_code; message : string }

let bad fmt = Printf.ksprintf (fun message -> Error { code = P.Bad_request; message }) fmt
let unsupported message = Error { code = P.Unsupported; message }

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

(* -- cache keys ----------------------------------------------------------
   Keyed on the structural Litmus.hash, never the test name: `sb` and a
   renamed copy share an entry, and `inc3` can never alias a corpus test.
   Limits are deliberately NOT part of the key — a budget bounds the cost
   of computing, and serving an already-complete answer costs nothing.
   Partial results are never stored, so a key always maps to the one
   complete answer. *)

let fam = Model.family_name

module Names = Map.Make (String)

(* (hash, test) by name, memoized: [Litmus.find] rebuilds an incN test and
   [Litmus.hash] walks it byte by byte, and neither answer ever changes.
   Every test has one name ([Litmus.find] refuses ["inc05"]), so the
   table holds at most the corpus and incN up to
   [Litmus.max_inc_threads]. Worker domains read an immutable snapshot; a
   miss computes outside any lock and publishes with compare-and-set, and
   a domain that loses the race has only recomputed the same value. *)
let memo : (string * Litmus.t) Names.t Atomic.t = Atomic.make Names.empty

let rec publish name v =
  let m = Atomic.get memo in
  if not (Atomic.compare_and_set memo m (Names.add name v m)) then publish name v

let litmus_hash name =
  match Names.find_opt name (Atomic.get memo) with
  | Some v -> Ok v
  | None -> (
    match Litmus.find name with
    | t ->
      let v = (Litmus.hash t, t) in
      publish name v;
      Ok v
    | exception Not_found ->
      Error { code = P.Unknown_test; message = Litmus.unknown_test name })

let check_family = function
  | Model.Custom -> unsupported "custom models have no wire encoding"
  | f -> Ok f

let max_window = 1024

let check_window w =
  if w >= 1 && w <= max_window then Ok w else bad "window %d out of range 1..%d" w max_window

(* "kind|hash|family|wW", plus any [extra] fields: the key of a query on a
   litmus test, joined without Printf on the cache-hit path *)
let litmus_key kind test family window extra =
  let* family = check_family family in
  let* window = check_window window in
  let* hash, _ = litmus_hash test in
  Ok (String.concat "|" (kind :: hash :: fam family :: ("w" ^ string_of_int window) :: extra))

let cache_key (q : P.query) =
  match q with
  | P.Verify { test; family; window } -> litmus_key "verify" test family window []
  | P.Enumerate { test; family; window; por } ->
    litmus_key "enum" test family window [ (if por then "por1" else "por0") ]
  | P.Axiom { test; family; window } -> litmus_key "axiom" test family window []
  | P.Estimate { kind; family; seed; trials; target_width } ->
    let* family = check_family family in
    let* () = if trials >= 1 then Ok () else bad "trials must be >= 1 (got %d)" trials in
    let* () =
      match target_width with
      | Some w when not (w > 0. && w <= 1.) -> bad "width must be in (0, 1] (got %g)" w
      | _ -> Ok ()
    in
    (* %h renders floats exactly, so distinct parameters cannot collide *)
    let width = match target_width with None -> "-" | Some w -> Printf.sprintf "%h" w in
    (match kind with
     | P.Settling { gamma; p; m } ->
       let* () = if gamma >= 0 then Ok () else bad "gamma must be >= 0 (got %d)" gamma in
       let* () = if p > 0. && p < 1. then Ok () else bad "p must be in (0, 1) (got %g)" p in
       let* () = if m >= 1 then Ok () else bad "m must be >= 1 (got %d)" m in
       Ok
         (Printf.sprintf "est|settling|%s|g%d|p%h|m%d|s%d|t%d|w%s" (fam family) gamma p m seed
            trials width)
     | P.Shift { gammas } ->
       let* () =
         if Array.length gammas = 0 then bad "shift needs at least one segment"
         else if Array.exists (fun g -> g < 0) gammas then bad "segment lengths must be >= 0"
         else Ok ()
       in
       Ok
         (Printf.sprintf "est|shift|g%s|s%d|t%d|w%s"
            (String.concat "," (List.map string_of_int (Array.to_list gammas)))
            seed trials width)
     | P.Joint { n } ->
       let* () = if n >= 2 then Ok () else bad "joint needs n >= 2 (got %d)" n in
       Ok (Printf.sprintf "est|joint|%s|n%d|s%d|t%d|w%s" (fam family) n seed trials width))

(* wire limits are client data: a bad one is a typed bad request naming
   its field, checked here rather than left to Budget.create (which raises)
   or to [mb * 1024 * 1024] (which overflows) *)
let check_limits : P.limits -> _ = function
  | { deadline_s = Some d; _ } when not (Float.is_finite d && d >= 0.) ->
    bad "deadline_s must be finite and >= 0 (got %g)" d
  | { max_work = Some w; _ } when w < 0 -> bad "max_work must be >= 0 (got %d)" w
  | { max_mem_mb = Some mb; _ } when mb < 0 || mb > max_int lsr 20 ->
    bad "max_mem_mb must be in 0..%d (got %d)" (max_int lsr 20) mb
  | _ -> Ok ()

(* -- budgets ------------------------------------------------------------- *)

let merge_min a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let budget_of caps (l : P.limits) =
  let deadline_s = merge_min l.P.deadline_s caps.max_deadline_s in
  let max_work = merge_min l.P.max_work caps.max_work_cap in
  let max_mem_mb = merge_min l.P.max_mem_mb caps.max_mem_mb_cap in
  match (deadline_s, max_work, max_mem_mb) with
  | None, None, None -> None
  | _ ->
    Some
      (Budget.create ?deadline_s ?max_work
         ?max_mem_bytes:(Option.map (fun mb -> mb * 1024 * 1024) max_mem_mb)
         ())

(* -- dispatch ------------------------------------------------------------ *)

let model_of_family = function
  | Model.Sequential_consistency -> Model.sc
  | Model.Total_store_order -> Model.tso ()
  | Model.Partial_store_order -> Model.pso ()
  | Model.Weak_ordering -> Model.wo ()
  | Model.Custom -> invalid_arg "Engine: custom family"

let result ?exhausted payload =
  { P.payload; partial = Option.map P.partial_of_exhaustion exhausted }

(* per-query spill directory under the configured root: derived from the
   cache key, so retries of the same query resume the same spill state and
   distinct queries never collide *)
let spill_dir_of extmem key =
  let safe =
    String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '.' -> c | _ -> '_')
      key
  in
  Filename.concat extmem.spill_root safe

(* The daemon's spill policy around [Litmus.run_exhaustive], which removes
   a complete run's spill state: a retried query resumes what its directory
   holds. Corrupt spill state (crash debris, a torn run file) must not
   poison a query forever: sweep it and restart once; if that fails too,
   sweep again so the next retry starts fresh, and surface the error. *)
let with_spill ?extmem ~key run =
  match extmem with
  | None -> run None
  | Some x ->
    let dir = spill_dir_of x key in
    let spill resume =
      Some { Litmus.dir; mem_budget_bytes = x.mem_budget_bytes; resume; resume_key = key }
    in
    (try run (spill (Extmem.can_resume dir))
     with Extmem.Spill_error _ ->
       Extmem.remove_spill_dir dir;
       (try run (spill false)
        with e ->
          Extmem.remove_spill_dir dir;
          raise e))

let run ~caps ?extmem (q : P.query) (limits : P.limits) =
  (* check_limits and cache_key perform all parameter validation *)
  let* () = check_limits limits in
  let* key = cache_key q in
  let budget = budget_of caps limits in
  match q with
  | P.Verify { test; family; window } ->
    let* _, t = litmus_hash test in
    let { Litmus.observed_relaxed; expected_relaxed; agrees; outcome_count = outcomes; terminals;
          exhausted; _ } =
      with_spill ?extmem ~key (fun spill -> Litmus.check ~window ~por:true ?budget ?spill t family)
    in
    Ok
      (result ?exhausted
         (P.Verdict { observed_relaxed; expected_relaxed; agrees; outcomes; terminals }))
  | P.Enumerate { test; family; window; por } ->
    let* _, t = litmus_hash test in
    let r, _ =
      with_spill ?extmem ~key (fun spill ->
          Litmus.run_exhaustive ~window ~por ?budget ?spill t family)
    in
    Ok
      (result ?exhausted:r.Enumerate.exhausted
         (P.Outcomes
            {
              entries = r.Enumerate.outcomes;
              terminals = r.Enumerate.terminals;
              states = r.Enumerate.states_visited;
            }))
  | P.Axiom { test; family; window } ->
    let* _, t = litmus_hash test in
    let r = Solver.run ~window ?budget t family in
    Ok
      (result ?exhausted:r.Solver.stats.Solver.exhausted
         (P.Axiom_outcomes
            {
              entries =
                List.map
                  (fun (e : Solver.entry) -> (e.Solver.outcome, e.Solver.candidates))
                  r.Solver.entries;
              accepted = r.Solver.stats.Solver.accepted;
            }))
  | P.Estimate { kind; family; seed; trials; target_width } ->
    let rng = Rng.create seed in
    let estimated (r : _ Memrel_prob.Par.outcome) (point, (ci : Memrel_prob.Stats.interval)) =
      result ?exhausted:r.Memrel_prob.Par.exhausted
        (P.Estimated
           { point; lo = ci.Memrel_prob.Stats.lo; hi = ci.Memrel_prob.Stats.hi;
             trials = r.Memrel_prob.Par.trials_done; target_met = r.Memrel_prob.Par.target_met })
    in
    Ok
      (match kind with
       | P.Settling { gamma; p; m } ->
         let r =
           Mc.probability_b_adaptive ~p ~m ~jobs:1 ?budget ?target_width ~max_trials:trials
             ~gamma (model_of_family family) rng
         in
         estimated r r.Memrel_prob.Par.value
       | P.Shift { gammas } ->
         let r =
           Process.estimate_adaptive ~jobs:1 ?budget ?target_width ~max_trials:trials rng gammas
         in
         estimated r r.Memrel_prob.Par.value
       | P.Joint { n } ->
         let r =
           Joint.estimate_adaptive ~jobs:1 ?budget ?target_width ~max_trials:trials
             (model_of_family family) ~n rng
         in
         let e = r.Memrel_prob.Par.value in
         estimated r (e.Joint.pr_no_bug, e.Joint.ci))

let run ~caps ?extmem q limits =
  match run ~caps ?extmem q limits with
  | (Ok _ | Error _) as r -> r
  | exception Invalid_argument m -> unsupported m
  | exception Extmem.Spill_error m ->
    Error { code = P.Server_error; message = "spill: " ^ m }
  | exception e -> Error { code = P.Server_error; message = Printexc.to_string e }

(* -- cached execution ----------------------------------------------------
   The single entry point the server (and the differential tests) use: the
   cache stores Protocol.encode_result bytes, and only complete results.
   A hit is therefore always the exact bytes a direct run produced. *)

let run_cached ~caps ?extmem cache (q : P.query) (limits : P.limits) =
  let* () = check_limits limits in
  let* key = cache_key q in
  Cache.find_or_compute cache ~key ~compute:(fun () ->
      let* r = run ~caps ?extmem q limits in
      Ok (P.encode_result r, r.P.partial = None))
