(* memrel command-line interface: every experiment in DESIGN.md, runnable
   with explicit parameters. `memrel --help` lists the subcommands. *)

open Memrel
open Cmdliner

let model_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "sc" -> Ok Model.sc
    | "tso" -> Ok (Model.tso ())
    | "pso" -> Ok (Model.pso ())
    | "wo" -> Ok (Model.wo ())
    | _ -> Error (`Msg (Printf.sprintf "unknown model %S (expected sc|tso|pso|wo)" s))
  in
  Arg.conv (parse, fun fmt m -> Format.pp_print_string fmt (Model.name m))

let model_arg =
  Arg.(value & opt model_conv (Model.tso ()) & info [ "model" ] ~docv:"MODEL"
         ~doc:"Memory model: sc, tso, pso or wo.")

let seed_arg =
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc:"PRNG seed.")

(* counts, windows and thread bounds: a value below [lo] (or above [hi]) is
   a usage error (exit 124), never a library exception or a wrong answer *)
let int_at_least ?(hi = max_int) lo =
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && n <= hi -> Ok n
    | Some n when n > hi ->
      Error (`Msg (Printf.sprintf "invalid value %S, expected an integer <= %d" s hi))
    | _ when lo = 1 ->
      Error (`Msg (Printf.sprintf "invalid value %S, expected a positive integer" s))
    | _ -> Error (`Msg (Printf.sprintf "invalid value %S, expected an integer >= %d" s lo))
  in
  Arg.conv (parse, Format.pp_print_int)

let pos_int = int_at_least 1

(* the WO window, bounded as the daemon bounds it *)
let window_arg doc =
  Arg.(value & opt (int_at_least ~hi:Service_engine.max_window 1) 8
       & info [ "window" ] ~docv:"W" ~doc)

(* budgets (deadlines, caps, watermarks): a negative value is a usage
   error like a nonpositive count *)
let nonneg_int = int_at_least 0

let nonneg_float =
  let parse s =
    match float_of_string_opt s with
    | Some f when f >= 0.0 -> Ok f
    | _ -> Error (`Msg (Printf.sprintf "invalid value %S, expected a number >= 0" s))
  in
  Arg.conv (parse, Format.pp_print_float)

let trials_arg default =
  Arg.(value & opt pos_int default & info [ "trials" ] ~docv:"N" ~doc:"Monte Carlo trials.")

let threads_arg =
  Arg.(value & opt int 2 & info [ "n"; "threads" ] ~docv:"N" ~doc:"Number of threads.")

(* 0 = auto (Par.default_jobs: one worker per core, minus the caller) *)
let jobs_arg =
  let doc = "Worker domains for Monte Carlo fan-out (0 = one per core). Results are \
             bit-identical for every value." in
  Arg.(value & opt int 0 & info [ "j"; "jobs" ] ~docv:"JOBS" ~doc)

let resolve_jobs j = if j <= 0 then None else Some j

(* -- adaptive (CI-width) stopping --------------------------------------- *)

let target_width_arg =
  Arg.(value & opt (some float) None & info [ "target-width" ] ~docv:"W"
         ~doc:"Adaptive stopping: run until the 95% Wilson interval of the simulated \
               probability has width at most W (checked at chunk boundaries; the stopping \
               trial count is deterministic per seed and identical at every --jobs), capped \
               by $(b,--max-trials). The achieved interval is printed either way. Not \
               combinable with --checkpoint/--resume.")

let max_trials_arg =
  Arg.(value & opt (some pos_int) None & info [ "max-trials" ] ~docv:"N"
         ~doc:"Trial cap for $(b,--target-width) (default: the --trials value).")

let progress_arg =
  Arg.(value & flag & info [ "progress" ]
         ~doc:"Print the running estimate and interval to stderr every few chunks.")

let progress_report ~label enabled =
  if not enabled then None
  else
    Some
      (fun ~trials ~successes ->
        let p, ci = Stats.proportion ~successes ~trials in
        Printf.eprintf "memrel: %s %9d trials  %.6f [%.6f, %.6f]  width %.6f\n%!" label trials
          p ci.Stats.lo ci.Stats.hi (ci.Stats.hi -. ci.Stats.lo))

(* The engine can checkpoint an adaptive run, but a snapshot is keyed by the
   schedule length, which is --max-trials here and --trials otherwise, and
   what a resumed adaptive run should report has not been specified yet:
   reject the combination instead of guessing *)
let check_adaptive_flags target_width checkpoint resume =
  if target_width <> None && (checkpoint <> None || resume <> None) then begin
    prerr_endline "memrel: --target-width cannot be combined with --checkpoint/--resume";
    false
  end
  else true

(* --max-trials caps an adaptive run only *)
let trial_cap ~trials ~max_trials target_width =
  if target_width = None then trials else Option.value max_trials ~default:trials

let adaptive_status ~(run : _ Par.outcome) ~target_width =
  if run.Par.target_met then
    Printf.printf "adaptive: target width %g reached after %d trials\n" target_width
      run.Par.trials_done
  else
    Printf.printf "adaptive: target width %g NOT reached within %d trials\n" target_width
      run.Par.trials_done

(* -- resource governance (budgets, checkpoints, resume) ----------------- *)

let deadline_arg =
  Arg.(value & opt (some nonneg_float) None & info [ "deadline" ] ~docv:"SECS"
         ~doc:"Wall-clock budget in seconds. On expiry the engine stops cooperatively, the \
               partial result computed so far is printed, and the exit code is 3. \
               $(b,--deadline 0) stops before any work — useful to test the partial path \
               deterministically.")

let max_mem_arg =
  Arg.(value & opt (some nonneg_int) None & info [ "max-mem" ] ~docv:"MB"
         ~doc:"Major-heap watermark in megabytes (sampled with Gc.quick_stat). Crossing it \
               ends the run with a partial result and exit code 3.")

let checkpoint_arg =
  Arg.(value & opt (some string) None & info [ "checkpoint" ] ~docv:"FILE"
         ~doc:"Periodically write a crash-safe snapshot of the Monte Carlo run to FILE \
               (atomic tmp+rename, CRC-guarded, versioned). A final snapshot is written on \
               completion.")

let checkpoint_every_arg =
  Arg.(value & opt pos_int Par.default_checkpoint_every & info [ "checkpoint-every" ] ~docv:"N"
         ~doc:"Snapshot after every N completed chunks (with --checkpoint).")

let resume_arg =
  Arg.(value & opt (some string) None & info [ "resume" ] ~docv:"FILE"
         ~doc:"Resume from a snapshot written by --checkpoint. Requires the same seed, \
               --trials and chunking; completed chunks are not re-run and the final result \
               is bit-identical to an uninterrupted run. Corrupted, truncated or mismatched \
               snapshots are rejected.")

let budget_of ?max_work deadline max_mem =
  match (deadline, max_mem, max_work) with
  | None, None, None -> None
  | _ ->
    Some
      (Budget.create ?deadline_s:deadline
         ?max_mem_bytes:(Option.map (fun mb -> mb * 1024 * 1024) max_mem)
         ?max_work ())

(* budget-exhausted partial runs share one exit code and a one-line stderr
   summary *)
let partial_exit ~engine = function
  | None -> 0
  | Some e ->
    Printf.eprintf "memrel: %s stopped early — %s; the printed result is partial\n" engine
      (Budget.describe e);
    3

(* typed robustness errors (bad snapshots, exhausted retries) exit cleanly
   instead of escaping as a backtrace *)
let with_robust f =
  try f () with
  | Par.Invalid_snapshot msg ->
    Printf.eprintf "memrel: %s\n" msg;
    Cmd.Exit.some_error
  | Par.Retries_exhausted { chunk; attempts; last_error } ->
    Printf.eprintf "memrel: chunk %d failed after %d attempts (last error: %s)\n" chunk
      attempts last_error;
    Cmd.Exit.some_error

let budget_exit_info =
  Cmd.Exit.info 3
    ~doc:"the resource budget (--deadline, --max-mem or a work cap) was exhausted; the \
          printed result is partial."

let budget_exits = budget_exit_info :: Cmd.Exit.defaults

(* -- exact-arithmetic observability (--stats) -------------------------- *)

let stats_arg =
  Arg.(value & flag & info [ "stats" ]
         ~doc:"After the run, print the Bigint fast-path hit rate and the \
               Rational/Combinatorics counters for the exact-arithmetic substrate.")

(* wraps an exact-capable subcommand body: zero the counters going in,
   print them coming out *)
let with_exact_stats enabled f =
  if not enabled then f ()
  else begin
    Bigint.reset_stats ();
    Rational.reset_stats ();
    Combinatorics.clear_caches ();
    let code = f () in
    let bs = Bigint.stats () in
    let rs = Rational.stats () in
    let cs = Combinatorics.cache_stats () in
    Printf.printf "\nexact-arithmetic stats:\n";
    Printf.printf
      "  bigint:   %d small-path / %d big-path ops (hit rate %.4f), %d promotions, %d demotions\n"
      bs.Bigint.small_ops bs.Bigint.big_ops (Bigint.small_hit_rate bs) bs.Bigint.promotions
      bs.Bigint.demotions;
    Printf.printf "  rational: %d adds (%d coprime-fast), %d muls (%d coprime-fast)\n"
      rs.Rational.adds rs.Rational.add_coprime rs.Rational.muls rs.Rational.mul_coprime;
    Printf.printf
      "  caches:   binomial %d hits / %d misses (%d entries), phi %d hits / %d misses (%d entries)\n"
      cs.Combinatorics.binomial_hits cs.Combinatorics.binomial_misses
      cs.Combinatorics.binomial_entries cs.Combinatorics.partition_hits
      cs.Combinatorics.partition_misses cs.Combinatorics.partition_entries;
    code
  end

(* -- table1 ----------------------------------------------------------- *)

let table1_cmd =
  let run () = print_string (Model.table1 ()); 0 in
  Cmd.v (Cmd.info "table1" ~doc:"Print the paper's Table 1 (memory model matrix).")
    Term.(const run $ const ())

(* -- figure1 ---------------------------------------------------------- *)

let figure1_cmd =
  let run model seed m = print_string (Render.figure1_random ~m ~seed model); 0 in
  let m_arg =
    Arg.(value & opt int 6 & info [ "m" ] ~docv:"M" ~doc:"Prefix length of the random program.")
  in
  Cmd.v (Cmd.info "figure1" ~doc:"Render a settling-process instantiation (paper Figure 1).")
    Term.(const run $ model_arg $ seed_arg $ m_arg)

(* -- figure2 ---------------------------------------------------------- *)

let figure2_cmd =
  let run gammas shifts =
    match shifts with
    | [] -> print_string (Render.figure2_paper_instance ()); 0
    | _ ->
      if List.length shifts <> List.length gammas then begin
        prerr_endline "memrel: --shifts must match --gammas in length";
        Cmd.Exit.some_error
      end
      else begin
        print_string
          (Render.figure2 ~gammas:(Array.of_list gammas) ~shifts:(Array.of_list shifts));
        0
      end
  in
  let gammas_arg =
    Arg.(value & opt (list int) [ 3; 2; 5 ] & info [ "gammas" ] ~docv:"G,G,..."
           ~doc:"Segment lengths.")
  in
  let shifts_arg =
    Arg.(value & opt (list int) [] & info [ "shifts" ] ~docv:"S,S,..."
           ~doc:"Shifts (defaults to the paper's Figure 2 instance).")
  in
  Cmd.v (Cmd.info "figure2" ~doc:"Render a shift-process instantiation (paper Figure 2).")
    Term.(const run $ gammas_arg $ shifts_arg)

(* -- window ----------------------------------------------------------- *)

let window_cmd =
  let run model seed trials gamma_max p s jobs stats deadline max_mem checkpoint
      checkpoint_every resume =
    with_robust @@ fun () ->
    with_exact_stats stats @@ fun () ->
    let model = match (Model.family model, s) with
      | _, None -> model
      | Model.Total_store_order, Some s -> Model.tso ~s ()
      | Model.Partial_store_order, Some s -> Model.pso ~s ()
      | Model.Weak_ordering, Some s -> Model.wo ~s ()
      | (Model.Sequential_consistency | Model.Custom), Some _ -> model
    in
    let rng = Rng.create seed in
    let g =
      Window_mc.estimate_governed ~p ?jobs:(resolve_jobs jobs)
        ?budget:(budget_of deadline max_mem) ?checkpoint ~checkpoint_every ?resume ~trials
        model rng
    in
    Printf.printf "critical-window growth Pr[B_gamma] under %s (p = %.2f, s = %.2f)\n\n"
      (Model.name model) p (Model.s model);
    let mc = g.Par.value in
    let dp =
      match Model.family model with
      | Model.Custom -> []
      | _ -> Window_exact_dp.gamma_pmf ~p model ~m:16
    in
    let normal_form = p = 0.5 && Model.s model = 0.5 in
    Printf.printf "%6s %12s %12s %12s\n" "gamma" "analytic" "dp(m=16)" "mc";
    for g = 0 to gamma_max do
      let analytic =
        match Model.family model with
        | Model.Sequential_consistency -> Rational.to_float (Window_analytic.b_sc g)
        | Model.Weak_ordering ->
          if normal_form then Rational.to_float (Window_analytic.b_wo g)
          else Window_analytic_general.b_wo ~s:(Model.s model) g
        | Model.Total_store_order ->
          if normal_form then Window_analytic.b_tso_series g
          else Window_analytic_general.b_tso ~p ~s:(Model.s model) g
        | Model.Partial_store_order | Model.Custom -> Float.nan
      in
      let dpv = try List.assoc g dp with Not_found -> Float.nan in
      let mcv = try List.assoc g mc.gamma_pmf with Not_found -> 0.0 in
      Printf.printf "%6d %12.6f %12.6f %12.6f\n" g analytic dpv mcv
    done;
    partial_exit
      ~engine:
        (Printf.sprintf "window (mc column covers %d of %d trials)" mc.Window_mc.trials trials)
      g.Par.exhausted
  in
  let gamma_max_arg =
    Arg.(value & opt int 8 & info [ "gamma-max" ] ~docv:"G" ~doc:"Largest gamma to print.")
  in
  let p_arg =
    Arg.(value & opt float 0.5 & info [ "p" ] ~docv:"P" ~doc:"Store density of the program.")
  in
  let s_arg =
    Arg.(value & opt (some float) None & info [ "s" ] ~docv:"S"
           ~doc:"Swap probability (defaults to the model's 1/2).")
  in
  Cmd.v (Cmd.info "window" ~exits:budget_exits ~doc:"Critical-window distribution (Theorem 4.1).")
    Term.(const run $ model_arg $ seed_arg $ trials_arg 200_000 $ gamma_max_arg $ p_arg $ s_arg
          $ jobs_arg $ stats_arg $ deadline_arg $ max_mem_arg $ checkpoint_arg
          $ checkpoint_every_arg $ resume_arg)

(* -- shift ------------------------------------------------------------ *)

let shift_cmd =
  let run gammas seed trials jobs stats deadline max_mem checkpoint checkpoint_every resume
      target_width max_trials progress =
    with_robust @@ fun () ->
    with_exact_stats stats @@ fun () ->
    let g = Array.of_list gammas in
    let exact = Shift_exact.disjoint_probability g in
    let rng = Rng.create seed in
    let jobs = resolve_jobs jobs in
    let budget = budget_of deadline max_mem in
    let print_result est (ci : Stats.interval) =
      Printf.printf "Pr[A(%s)] exact %s (%.6f); simulated %.6f [%.6f, %.6f]\n"
        (String.concat "," (List.map string_of_int gammas))
        (Rational.to_string exact) (Rational.to_float exact) est ci.lo ci.hi
    in
    if not (check_adaptive_flags target_width checkpoint resume) then Cmd.Exit.some_error
    else begin
      let s =
        Shift.estimate_adaptive ?jobs ?budget ?report:(progress_report ~label:"shift" progress)
          ?target_width ?checkpoint ~checkpoint_every ?resume
          ~max_trials:(trial_cap ~trials ~max_trials target_width) rng g
      in
      let est, ci = s.Par.value in
      print_result est ci;
      match target_width with
      | Some w ->
        adaptive_status ~run:s ~target_width:w;
        partial_exit
          ~engine:(Printf.sprintf "shift (simulated over %d trials)" s.Par.trials_done)
          s.Par.exhausted
      | None ->
        partial_exit
          ~engine:
            (Printf.sprintf "shift (simulated over %d of %d trials)" s.Par.trials_done trials)
          s.Par.exhausted
    end
  in
  let gammas_arg =
    Arg.(value & opt (list int) [ 3; 2; 5 ] & info [ "gammas" ] ~docv:"G,G,..."
           ~doc:"Segment lengths (at most 8).")
  in
  Cmd.v
    (Cmd.info "shift" ~exits:budget_exits
       ~doc:"Shift-process disjointness probability (Theorem 5.1).")
    Term.(const run $ gammas_arg $ seed_arg $ trials_arg 500_000 $ jobs_arg $ stats_arg
          $ deadline_arg $ max_mem_arg $ checkpoint_arg $ checkpoint_every_arg $ resume_arg
          $ target_width_arg $ max_trials_arg $ progress_arg)

(* -- joint ------------------------------------------------------------ *)

let joint_cmd =
  let run model n seed trials jobs stats deadline max_mem checkpoint checkpoint_every resume
      target_width max_trials progress =
    with_robust @@ fun () ->
    with_exact_stats stats @@ fun () ->
    let jobs = resolve_jobs jobs in
    let rng = Rng.create seed in
    if not (check_adaptive_flags target_width checkpoint resume) then Cmd.Exit.some_error
    else begin
    let s =
      Joint.estimate_adaptive ?jobs ?budget:(budget_of deadline max_mem)
        ?report:(progress_report ~label:"joint" progress) ?target_width ?checkpoint
        ~checkpoint_every ?resume ~max_trials:(trial_cap ~trials ~max_trials target_width) model
        ~n rng
    in
    let e = s.Par.value in
    Printf.printf "Pr[A] (%s, n=%d): simulated %.6f [%.6f, %.6f]\n" (Model.name model) n
      e.pr_no_bug e.ci.lo e.ci.hi;
    match target_width with
    | Some w ->
      adaptive_status ~run:s ~target_width:w;
      partial_exit
        ~engine:(Printf.sprintf "joint (simulated over %d trials)" s.Par.trials_done)
        s.Par.exhausted
    | None when s.Par.exhausted <> None ->
      (* the budget is spent: skip the exact/semi-analytic companions and
         report the partial estimate honestly *)
      partial_exit
        ~engine:
          (Printf.sprintf "joint (simulated over %d of %d trials)" e.Joint.trials trials)
        s.Par.exhausted
    | None ->
    (match Model.family model with
     | Model.Sequential_consistency ->
       Printf.printf "exact: %s\n" (Rational.to_string (Manifestation.pr_a_sc ~n))
     | Model.Weak_ordering ->
       Printf.printf "exact: %s\n" (Rational.to_string (Manifestation.pr_a_wo ~n))
     | Model.Total_store_order ->
       let lo, hi = Manifestation.pr_a_tso_bounds ~n in
       Printf.printf "paper bounds (independence approx): %.4e .. %.4e; exact series %.4e\n"
         (Rational.to_float lo) (Rational.to_float hi)
         (Manifestation.pr_a_tso_independent_series ~n);
       if n <= Window_joint_dp.max_replicas + 1 then
         Printf.printf "joint-exact (correlated, coupled-chain DP): %.4e\n"
           (Manifestation.pr_a_joint_exact model ~n);
       Printf.printf "semi-analytic (correlated, MC): %.4e\n"
         (Joint.semi_analytic ?jobs ~trials model ~n rng)
     | Model.Partial_store_order ->
       if n <= Window_joint_dp.max_replicas + 1 then
         Printf.printf "joint-exact (correlated, coupled-chain DP): %.4e\n"
           (Manifestation.pr_a_joint_exact model ~n);
       Printf.printf "semi-analytic (correlated, MC): %.4e\n"
         (Joint.semi_analytic ?jobs ~trials model ~n rng)
     | Model.Custom ->
       Printf.printf "semi-analytic (correlated, MC): %.4e\n"
         (Joint.semi_analytic ?jobs ~trials model ~n rng));
    0
    end
  in
  Cmd.v
    (Cmd.info "joint" ~exits:budget_exits
       ~doc:"End-to-end bug manifestation probability (Theorem 6.2).")
    Term.(const run $ model_arg $ threads_arg $ seed_arg $ trials_arg 200_000 $ jobs_arg
          $ stats_arg $ deadline_arg $ max_mem_arg $ checkpoint_arg $ checkpoint_every_arg
          $ resume_arg $ target_width_arg $ max_trials_arg $ progress_arg)

(* -- scaling ---------------------------------------------------------- *)

let scaling_cmd =
  let run n_max jobs =
    Printf.printf "%4s %12s %12s %12s %8s %8s %8s %10s\n" "n" "log2Pr(SC)" "log2Pr(WO)"
      "log2Pr(TSO)" "nSC" "nWO" "nTSO" "SCadv/n^2";
    List.iter
      (fun (r : Scaling.row) ->
        let norm v = Scaling.normalized_exponent ~log2_pr:v ~n:r.n in
        let gap, _ = Scaling.gap_ratio_log2 r in
        Printf.printf "%4d %12.2f %12.2f %12.2f %8.4f %8.4f %8.4f %10.6f\n" r.n r.log2_sc
          r.log2_wo r.log2_tso (norm r.log2_sc) (norm r.log2_wo) (norm r.log2_tso)
          (gap /. float_of_int (r.n * r.n)))
      (Scaling.table ?jobs:(resolve_jobs jobs) ~n_max ());
    0
  in
  let n_max_arg =
    Arg.(value & opt (int_at_least 2) 16 & info [ "n-max" ] ~docv:"N"
           ~doc:"Largest thread count (at least 2).")
  in
  Cmd.v (Cmd.info "scaling" ~doc:"Thread-scaling table (Theorem 6.3).")
    Term.(const run $ n_max_arg $ jobs_arg)

(* unknown-test errors offer the corpus: every subcommand taking a test
   name routes through this *)
let find_litmus name =
  match Litmus.find name with
  | t -> Ok t
  | exception Not_found -> Error (Litmus.unknown_test name)

(* -- litmus ----------------------------------------------------------- *)

let litmus_cmd =
  let run name file =
    match (name, file) with
    | Some "list", None ->
      (* `list` is reserved: a table of the corpus with structural hashes
         (the service cache keys) and size counts *)
      print_string (Litmus.corpus_table ());
      0
    | _ ->
    (* parsed tests carry no per-model expectation: report reachability only *)
    let loaded =
      match file with
      | Some path ->
        (try
           Ok ([ Litmus_parse.parse (In_channel.with_open_bin path In_channel.input_all) ], false)
         with
         | Sys_error msg -> Error msg
         | Litmus_parse.Parse_error { line; message } ->
           Error (Printf.sprintf "%s: line %d: %s" path line message))
      | None ->
        (match name with
         | None -> Ok (Litmus.all, true)
         | Some n -> Result.map (fun t -> ([ t ], true)) (find_litmus n))
    in
    match loaded with
    | Error msg ->
      Printf.eprintf "memrel: %s\n" msg;
      Cmd.Exit.some_error
    | Ok (tests, with_expectations) ->
    List.iter
      (fun (t : Litmus.t) ->
        Printf.printf "%s: %s\n" t.name t.description;
        List.iter
          (fun family ->
            let v = Litmus.check t family in
            let fname = Model.family_name family in
            if with_expectations then
              Printf.printf "  %-4s relaxed outcome %s (expected %s) %s\n" fname
                (if v.observed_relaxed then "ALLOWED" else "forbidden")
                (if v.expected_relaxed then "allowed" else "forbidden")
                (if v.agrees then "" else "** MISMATCH **")
            else
              Printf.printf "  %-4s relaxed outcome %s (%d reachable outcomes)\n" fname
                (if v.observed_relaxed then "ALLOWED" else "forbidden")
                v.outcome_count)
          Axiom_differential.standard_families)
      tests;
    0
  in
  let name_arg =
    Arg.(value & pos 0 (some string) None & info [] ~docv:"TEST"
           ~doc:"Litmus test name (all when omitted), or $(b,list) for a table of the \
                 corpus with structural hashes and thread/location/event counts.")
  in
  let file_arg =
    Arg.(value & opt (some file) None & info [ "file" ] ~docv:"FILE"
           ~doc:"Parse and run a litmus test from FILE (see Litmus_parse for the format).")
  in
  Cmd.v (Cmd.info "litmus" ~doc:"Run the litmus corpus on the operational machine.")
    Term.(const run $ name_arg $ file_arg)

(* -- fences ----------------------------------------------------------- *)

let fences_cmd =
  let run seed trials jobs =
    let rng = Rng.create seed in
    let pr_with every =
      let hits =
        Par.count ?jobs:(resolve_jobs jobs) ~trials
          ~worker:(fun () r ->
            let prog = Program.generate r ~m:37 in
            let prog =
              match every with
              | None -> prog
              | Some k -> Program.with_fences ~every:k ~kind:Fence.Acquire prog
            in
            let gamma () =
              let pi = Settle.run (Model.wo ()) r prog in
              Window.gamma prog pi + 2
            in
            (Shift.sample r [| gamma (); gamma () |]).disjoint)
          rng
      in
      let hits = hits.Par.value in
      float_of_int hits /. float_of_int trials
    in
    Printf.printf "WO + acquire fences, n=2, m=37, %d trials per row\n" trials;
    Printf.printf "  none    %.4f (7/54 = %.4f)\n" (pr_with None) (7.0 /. 54.0);
    List.iter (fun k -> Printf.printf "  every %2d %.4f\n" k (pr_with (Some k))) [ 16; 8; 4; 2 ];
    Printf.printf "  SC ref  %.4f\n" (1.0 /. 6.0);
    0
  in
  Cmd.v (Cmd.info "fences" ~doc:"Fence-density sweep (Section 7 extension).")
    Term.(const run $ seed_arg $ trials_arg 100_000 $ jobs_arg)

(* -- verify ----------------------------------------------------------- *)

let verify_cmd =
  let run cutoff stats =
    with_exact_stats stats @@ fun () ->
    Printf.printf "computing the verified enclosure of Pr[A] under TSO, n = 2\n";
    Printf.printf "(exact rational partial sums, provable truncation tails; cutoff %d)\n\n"
      cutoff;
    let e = Window_verified.pr_a_tso_n2 ~q_max:cutoff ~mu_max:cutoff ~gamma_max:cutoff () in
    Printf.printf "enclosure: [%.17f,\n            %.17f]\n"
      (Rational.to_float e.Window_verified.lo)
      (Rational.to_float e.Window_verified.hi);
    Printf.printf "width:     %.3e\n" (Rational.to_float (Window_verified.width e));
    let paper_lo = Rational.of_ints 58 441 in
    let paper_hi = Rational.add paper_lo (Rational.of_ints 1 189) in
    let inside =
      Rational.compare paper_lo e.Window_verified.lo < 0
      && Rational.compare e.Window_verified.hi paper_hi < 0
    in
    Printf.printf
      "Theorem 6.2's claim 58/441 < Pr[A] < 58/441 + 1/189: %s (exact rational comparison)\n"
      (if inside then "VERIFIED" else "NOT verified at this cutoff");
    if inside then 0
    else begin
      (* route the failure through Cmdliner's exit-status machinery instead
         of calling exit mid-stream *)
      Printf.eprintf "memrel: verification failed at cutoff %d (try a larger --cutoff)\n" cutoff;
      1
    end
  in
  let cutoff_arg =
    Arg.(value & opt int 40 & info [ "cutoff" ] ~docv:"K"
           ~doc:"Series truncation depth (larger = tighter, slower).")
  in
  let exits = Cmd.Exit.info 1 ~doc:"the bracket was NOT verified at this cutoff." :: Cmd.Exit.defaults in
  Cmd.v
    (Cmd.info "verify" ~exits
       ~doc:"Machine-verify Theorem 6.2's TSO bracket with exact rational enclosures.")
    Term.(const run $ cutoff_arg $ stats_arg)

(* -- enumerate --------------------------------------------------------- *)

let enumerate_cmd =
  let run name model por max_states window deadline max_mem extmem spill_dir mem_budget
      resume =
    match find_litmus name with
    | Error msg ->
      Printf.eprintf "memrel: %s\n" msg;
      Cmd.Exit.some_error
    | Ok t ->
      let family = Model.family model in
      let spill =
        if not (extmem || spill_dir <> None || resume) then None
        else
          let temp = Printf.sprintf "memrel-extmem-%d" (Unix.getpid ()) in
          (* the daemon's key for the same query, valid for a resolved name
             and a bounded window *)
          let key = Service_engine.cache_key (Enumerate { test = name; family; window; por }) in
          Some
            { Litmus.dir =
                Option.value spill_dir
                  ~default:(Filename.concat (Filename.get_temp_dir_name ()) temp);
              mem_budget_bytes = mem_budget * 1024 * 1024; resume; resume_key = Result.get_ok key }
      in
      let r, ext =
        Litmus.run_exhaustive ~window ~max_states ~por ?budget:(budget_of deadline max_mem)
          ?spill t family
      in
      let v = Litmus.verdict t family r in
      let partial = v.exhausted <> None in
      Option.iter
        (fun { Litmus.dir; _ } ->
          if partial then
            Printf.eprintf "memrel: spill state kept in %s — rerun with --spill-dir %s --resume \
                            to continue\n" dir dir)
        spill;
      Printf.printf "%s under %s%s: %d distinct outcomes, %d terminal states%s\n" t.name
        (Model.name model)
        (if por then " (POR)" else "")
        v.outcome_count v.terminals
        (if partial then " (PARTIAL exploration)" else "");
      List.iter
        (fun (o, k) ->
          Printf.printf "  %-30s %8d terminal state%s\n" (Axiom_differential.outcome_to_string o)
            k (if k = 1 then "" else "s"))
        r.outcomes;
      (* a partial exploration can witness reachability but never refute it *)
      Printf.printf "relaxed outcome %s: %s\n"
        (Axiom_differential.outcome_to_string t.relaxed_outcome)
        (if v.observed_relaxed then "ALLOWED"
         else if partial then "not seen (exploration incomplete)"
         else "forbidden");
      let s = r.stats in
      Printf.printf
        "states %d (%.0f states/sec, %.3fs); transitions %d; dedup hits %d\n\
         max depth %d; max frontier %d; POR: ample at %d states, %d transitions pruned\n"
        r.states_visited s.states_per_sec s.elapsed_s s.transitions s.dedup_hits s.max_depth
        s.max_frontier s.por_ample_states s.por_pruned;
      (match ext with
       | None -> ()
       | Some e ->
         Printf.printf
           "extmem: %d levels (peak %d states)%s; %d spill runs, %d bytes, %d overflow \
            runs, %d merges\n"
           e.Extmem.levels e.Extmem.peak_level_states
           (match e.Extmem.resumed_at_level with
            | Some l -> Printf.sprintf ", resumed at level %d" l
            | None -> "")
           e.Extmem.spill_runs e.Extmem.spill_bytes e.Extmem.spill_generations
           e.Extmem.merges);
      partial_exit
        ~engine:(Printf.sprintf "enumerate (%d states expanded)" r.states_visited)
        v.exhausted
  in
  let name_arg =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"TEST"
           ~doc:"Litmus test name; incN (e.g. inc4) selects the n-thread increment.")
  in
  let por_arg =
    Arg.(value & flag & info [ "por" ]
           ~doc:"Enable the ample-set partial-order reduction (identical outcomes, fewer states).")
  in
  let max_states_arg =
    Arg.(value & opt nonneg_int 2_000_000 & info [ "max-states" ] ~docv:"N"
           ~doc:"Stop after expanding N distinct states (states whose successors were \
                 computed; states merely discovered do not count) and report the partial \
                 exploration (exit code 3).")
  in
  let extmem_arg =
    Arg.(value & flag & info [ "extmem" ]
           ~doc:"Use the external-memory BFS engine: only one BFS level is held at a time, \
                 read from sorted runs on disk, and its successors are deduplicated in RAM \
                 up to --mem-budget, so state spaces larger than RAM enumerate exactly \
                 (identical outcomes and terminal counts to the in-RAM engine). Implied by \
                 --spill-dir and --resume. Combine with --max-states to raise the state cap.")
  in
  let spill_dir_arg =
    Arg.(value & opt (some string) None & info [ "spill-dir" ] ~docv:"DIR"
           ~doc:"Directory for the external-memory spill runs (default: a temporary \
                 directory). A run that completes removes its spill files, and DIR too if \
                 nothing else is left in it; a run that stops early keeps them, so it can \
                 continue with --resume.")
  in
  let mem_budget_arg =
    Arg.(value & opt pos_int 64 & info [ "mem-budget" ] ~docv:"MB"
           ~doc:"RAM budget (MiB) for the external-memory engine's successor set: a BFS \
                 level whose successors outgrow it spills them as sorted runs, merged at the \
                 level's end. Smaller budgets spill more, never change the result.")
  in
  let resume_enum_arg =
    Arg.(value & flag & info [ "resume" ]
           ~doc:"Resume a stopped or killed external-memory run from the per-level \
                 checkpoint in --spill-dir. The final result is bit-identical to an \
                 uninterrupted run. The checkpoint is named by the daemon's cache key of \
                 the same query (test hash, model, window, --por); corrupt spill state, or \
                 a checkpoint of another enumeration, is rejected.")
  in
  let run name model por max_states window deadline max_mem extmem spill_dir mem_budget
      resume =
    try run name model por max_states window deadline max_mem extmem spill_dir mem_budget
          resume
    with Extmem.Spill_error msg ->
      Printf.eprintf "memrel: %s\n" msg;
      Cmd.Exit.some_error
  in
  Cmd.v
    (Cmd.info "enumerate" ~exits:budget_exits
       ~doc:"Exhaustively enumerate a litmus test's state space with statistics.")
    Term.(const run $ name_arg $ model_arg $ por_arg $ max_states_arg
          $ window_arg "Out-of-order window for the wo model."
          $ deadline_arg $ max_mem_arg $ extmem_arg $ spill_dir_arg $ mem_budget_arg
          $ resume_enum_arg)

(* -- axiom ------------------------------------------------------------- *)

let axiom_cmd =
  let run names model no_diff window deadline max_mem max_candidates =
    let tests =
      match names with
      | [] -> Ok Litmus.all
      | ns ->
        List.fold_left
          (fun acc n ->
            match (acc, find_litmus n) with
            | Error _, _ -> acc
            | Ok _, Error msg -> Error msg
            | Ok ts, Ok t -> Ok (ts @ [ t ]))
          (Ok []) ns
    in
    match tests with
    | Error msg ->
      Printf.eprintf "memrel: %s\n" msg;
      Cmd.Exit.some_error
    | Ok tests ->
      let families =
        match model with
        | None -> Axiom_differential.standard_families
        | Some m -> [ Model.family m ]
      in
      let detail = List.length tests = 1 in
      let disagreements = ref 0 in
      (* any budget flag implies the no-diff path: comparing a partial
         axiomatic outcome set against the full operational one would
         report spurious disagreements *)
      let budget_requested =
        deadline <> None || max_mem <> None || max_candidates <> None
      in
      let partials = ref 0 in
      (* budgets are single-use (the deadline anchors at creation): one per
         test x family run *)
      let mk_budget () =
        if budget_requested then budget_of ?max_work:max_candidates deadline max_mem
        else None
      in
      (* the no-diff path: the solver alone *)
      let solve (t : Litmus.t) family =
        let r = Axiom_solver.run ~window ?budget:(mk_budget ()) t family in
        let s = r.Axiom_solver.stats in
        let partial = s.Axiom_solver.exhausted <> None in
        Printf.printf
          "  %-4s %d allowed outcomes (%d candidates of naive 10^%.1f; %.0f cand/s)\n\
          \       decisions %d; propagations %d; conflicts %d; forced %d; memo hits %d%s\n"
          (Model.family_name family)
          (List.length r.Axiom_solver.entries)
          s.Axiom_solver.accepted s.Axiom_solver.log10_naive_space
          s.Axiom_solver.candidates_per_sec s.Axiom_solver.decisions s.Axiom_solver.propagations
          s.Axiom_solver.conflicts s.Axiom_solver.forced
          s.Axiom_solver.memo_hits
          (if partial then " (PARTIAL coverage)" else "");
        Option.iter
          (fun e ->
            incr partials;
            Printf.printf
              "       enumeration stopped early (%s); allowed outcomes are a lower bound\n"
              (Budget.describe e))
          s.Axiom_solver.exhausted;
        if detail then
          List.iter
            (fun (e : Axiom_solver.entry) ->
              let n = e.Axiom_solver.candidates in
              Printf.printf "       %-30s %4d candidate%s\n"
                (Axiom_differential.outcome_to_string e.Axiom_solver.outcome)
                n
                (if n = 1 then "" else "s"))
            r.Axiom_solver.entries;
        Printf.printf "       relaxed outcome %s: %s\n"
          (Axiom_differential.outcome_to_string t.relaxed_outcome)
          (if
             List.exists
               (fun (e : Axiom_solver.entry) -> e.Axiom_solver.outcome = t.relaxed_outcome)
               r.Axiom_solver.entries
           then "ALLOWED"
           else if partial then "not seen (coverage incomplete)"
           else "forbidden")
      in
      (* the default path: the solver against the operational machine *)
      let differential (t : Litmus.t) family =
        let r = Axiom_differential.run ~window t family in
        let s = r.Axiom_differential.stats in
        if r.Axiom_differential.agree then begin
          Printf.printf
            "  %-4s agree: %d outcomes axiomatic = operational (%d candidates of naive \
             10^%.1f; %.0f cand/s; %d terminal states); relaxed %s\n"
            (Model.family_name family)
            (List.length r.Axiom_differential.axiomatic)
            s.Axiom_solver.accepted s.Axiom_solver.log10_naive_space
            s.Axiom_solver.candidates_per_sec r.Axiom_differential.operational_states
            (if Litmus.shows_relaxed t r.Axiom_differential.axiomatic then "ALLOWED"
             else "forbidden");
          if detail then
            List.iter
              (fun (o, _) -> Printf.printf "       %s\n" (Axiom_differential.outcome_to_string o))
              r.Axiom_differential.axiomatic
        end
        else begin
          incr disagreements;
          print_string (Axiom_differential.describe r)
        end
      in
      List.iter
        (fun (t : Litmus.t) ->
          Printf.printf "%s: %s\n" t.name t.description;
          List.iter
            (fun family ->
              if no_diff || budget_requested then solve t family else differential t family)
            families)
        tests;
      if !disagreements > 0 then begin
        Printf.eprintf "memrel: %d axiomatic/operational disagreement%s\n" !disagreements
          (if !disagreements = 1 then "" else "s");
        1
      end
      else if !partials > 0 then begin
        Printf.eprintf
          "memrel: axiom enumeration stopped early on %d run%s; the reported coverage is \
           partial\n"
          !partials
          (if !partials = 1 then "" else "s");
        3
      end
      else 0
  in
  let names_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"TEST"
           ~doc:"Litmus test names (the whole corpus when omitted); incN selects the \
                 N-thread increment.")
  in
  let model_opt_arg =
    Arg.(value & opt (some model_conv) None & info [ "model" ] ~docv:"MODEL"
           ~doc:"Restrict to one model (sc, tso, pso or wo; default: all four).")
  in
  let no_diff_arg =
    Arg.(value & flag & info [ "no-diff" ]
           ~doc:"Skip the operational cross-check; report the axiomatic side only.")
  in
  let max_candidates_arg =
    Arg.(value & opt (some nonneg_int) None & info [ "max-candidates" ] ~docv:"N"
           ~doc:"Stop each enumeration after N accepted candidate executions and report the \
                 partial coverage (exit code 3). Implies --no-diff.")
  in
  let exits =
    Cmd.Exit.info 1 ~doc:"axiomatic and operational outcome sets disagree."
    :: budget_exit_info :: Cmd.Exit.defaults
  in
  Cmd.v
    (Cmd.info "axiom" ~exits
       ~doc:"Enumerate axiomatically allowed executions (event graphs; acyclicity axioms \
             per model) with the chronological co/rf solver and cross-check them against \
             the operational enumeration. Budget flags (--deadline, --max-mem, \
             --max-candidates) apply per test and model, imply --no-diff, and report \
             partial coverage honestly.")
    Term.(const run $ names_arg $ model_opt_arg $ no_diff_arg
          $ window_arg "Out-of-order window for the wo model (both sides of the differential)."
          $ deadline_arg
          $ max_mem_arg $ max_candidates_arg)

(* -- serve / query (service mode) -------------------------------------- *)

let socket_arg =
  Arg.(required & opt (some string) None & info [ "socket" ] ~docv:"ADDR"
         ~doc:"Service address: a Unix-domain socket path, or $(b,tcp:HOST:PORT).")

let serve_cmd =
  let run socket cache_dir workers max_deadline max_work max_mem shards spill_dir
      mem_budget max_queue io_deadline fault_seed fault_rate =
    match Service_protocol.address_of_string socket with
    | Error msg ->
      Printf.eprintf "memrel: %s\n" msg;
      Cmd.Exit.some_error
    | Ok address ->
      let caps =
        { Service_engine.max_deadline_s = max_deadline; max_work_cap = max_work;
          max_mem_mb_cap = max_mem }
      in
      let extmem =
        Option.map
          (fun spill_root ->
            { Service_engine.spill_root; mem_budget_bytes = mem_budget * 1024 * 1024 })
          spill_dir
      in
      (* the chaos harness's lever: a seeded fault plan over all snapshot
         IO (cache entries, spill runs, manifests). Replayable — the same
         seed deals the same faults to the same operation sequence. *)
      (match fault_seed with
       | Some seed ->
         Faultio.install (Faultio.plan_rate ~seed fault_rate);
         Printf.printf "memrel serve: fault plan installed (seed %d, rate %.3f)\n%!" seed
           fault_rate
       | None -> ());
      let config =
        { Service_server.address; cache_dir; workers; caps; shards; extmem; max_queue;
          io_deadline_s = io_deadline; drain_signals = true }
      in
      Printf.printf "memrel serve: listening on %s (cache %s, %d worker%s)\n%!"
        (Service_protocol.address_to_string address)
        cache_dir workers
        (if workers = 1 then "" else "s");
      (match Service_server.run config with
       | () -> 0
       | exception Unix.Unix_error (e, fn, arg) ->
         Printf.eprintf "memrel: %s %s: %s\n" fn arg (Unix.error_message e);
         Cmd.Exit.some_error
       | exception Invalid_argument msg | exception Failure msg ->
         Printf.eprintf "memrel: %s\n" msg;
         Cmd.Exit.some_error)
  in
  let cache_dir_arg =
    Arg.(value & opt string "_memrel_cache" & info [ "cache-dir" ] ~docv:"DIR"
           ~doc:"Result cache directory (created if missing). Entries are CRC-guarded \
                 snapshot files keyed by structural litmus hash and query parameters; the \
                 cache survives restarts.")
  in
  let workers_arg =
    Arg.(value & opt int 1 & info [ "workers" ] ~docv:"N"
           ~doc:"Worker domains serving connections.")
  in
  let max_deadline_arg =
    Arg.(value & opt (some nonneg_float) None & info [ "max-deadline" ] ~docv:"SECS"
           ~doc:"Server-side ceiling on per-request deadlines: requests run under \
                 min(request, cap), and a capped budget applies even to requests that \
                 set no limit.")
  in
  let max_work_cap_arg =
    Arg.(value & opt (some nonneg_int) None & info [ "max-work" ] ~docv:"N"
           ~doc:"Server-side work-unit ceiling (states / candidates / chunks).")
  in
  let max_mem_cap_arg =
    Arg.(value & opt (some nonneg_int) None & info [ "max-mem" ] ~docv:"MB"
           ~doc:"Server-side major-heap watermark ceiling, in megabytes.")
  in
  let shards_arg =
    Arg.(value & opt int 16 & info [ "shards" ] ~docv:"N"
           ~doc:"Cache lock shards (1..256): queries on distinct shards never contend.")
  in
  let spill_dir_arg =
    Arg.(value & opt (some string) None & info [ "spill-dir" ] ~docv:"DIR"
           ~doc:"Answer verify/enumerate queries with the external-memory BFS engine, \
                 spilling per-query state under DIR — enumerations larger than RAM become \
                 answerable, and budget-tripped runs resume on the next identical query. \
                 Complete results are byte-identical to the in-RAM engine's.")
  in
  let mem_budget_arg =
    Arg.(value & opt pos_int 64 & info [ "mem-budget" ] ~docv:"MB"
           ~doc:"RAM budget (MiB) for the external-memory engine (with --spill-dir).")
  in
  let max_queue_arg =
    Arg.(value & opt int 64 & info [ "max-queue" ] ~docv:"N"
           ~doc:"Pending-connection bound: beyond N queued connections, new ones are shed \
                 with a typed overloaded/retry-after response instead of queueing without \
                 bound.")
  in
  let io_deadline_arg =
    Arg.(value & opt float 30. & info [ "io-deadline" ] ~docv:"SECS"
           ~doc:"Per-frame IO deadline: a connection that stalls mid-frame (half a request \
                 in, or not draining its reply) for SECS is reaped. Idle connections \
                 between frames are unaffected.")
  in
  let fault_seed_arg =
    Arg.(value & opt (some int) None & info [ "fault-seed" ] ~docv:"SEED"
           ~doc:"Install a seeded fault-injection plan over all snapshot IO (cache \
                 entries, spill runs, manifests): EINTR, short reads/writes, ENOSPC, torn \
                 renames and crash points, dealt deterministically so any failure replays \
                 from its seed. For chaos drills; off by default.")
  in
  let fault_rate_arg =
    Arg.(value & opt float 0.05 & info [ "fault-rate" ] ~docv:"P"
           ~doc:"Per-operation fault probability for --fault-seed (default 0.05).")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the query daemon: typed verify/enumerate/axiom/estimate requests over a \
             length-prefixed binary protocol, answered through a sharded snapshot-backed \
             result cache. Sheds load beyond --max-queue with retry-after responses, \
             reaps stalled connections at --io-deadline, drains gracefully on \
             SIGTERM/SIGINT, and refuses to steal a Unix socket a live daemon still \
             answers. Stop it with $(b,memrel query --shutdown).")
    Term.(const run $ socket_arg $ cache_dir_arg $ workers_arg $ max_deadline_arg
          $ max_work_cap_arg $ max_mem_cap_arg $ shards_arg $ spill_dir_arg
          $ mem_budget_arg $ max_queue_arg $ io_deadline_arg $ fault_seed_arg
          $ fault_rate_arg)

let query_cmd =
  let run socket wait deadline max_work max_mem stats ping shutdown retry queries =
    let module SP = Service_protocol in
    match SP.address_of_string socket with
    | Error msg ->
      Printf.eprintf "memrel: %s\n" msg;
      Cmd.Exit.some_error
    | Ok address ->
      let limits = { SP.deadline_s = deadline; max_work; max_mem_mb = max_mem } in
      let request =
        if stats then Ok SP.Stats
        else if ping then Ok SP.Ping
        else if shutdown then Ok SP.Shutdown
        else
          match queries with
          | [] -> Error "no query given (and none of --stats/--ping/--shutdown)"
          | qs ->
            List.fold_left
              (fun acc text ->
                match (acc, SP.parse_query text) with
                | (Error _ as e), _ -> e
                | Ok _, Error msg -> Error (Printf.sprintf "%S: %s" text msg)
                | Ok parsed, Ok q -> Ok (parsed @ [ q ]))
              (Ok []) qs
            |> Result.map (function
                 | [ q ] -> SP.Query (q, limits)
                 | qs -> SP.Batch (List.map (fun q -> (q, limits)) qs))
      in
      (match request with
       | Error msg ->
         Printf.eprintf "memrel: %s\n" msg;
         Cmd.Exit.some_error
       | Ok request -> begin
         let reply =
           if retry > 0 then
             Service_client.request_retry ~max_attempts:retry
               ~deadline_s:(Float.max wait 30.) address request
             |> Result.map fst
           else
             Service_client.with_connection ~retry_for:wait address (fun c ->
                 Service_client.request c request)
         in
         match reply with
         | Error msg ->
           Printf.eprintf "memrel: %s\n" msg;
           Cmd.Exit.some_error
         | Ok response ->
           print_endline (SP.render_response response);
           (* worst sub-response wins: error beats budget-partial beats ok *)
           let rec code = function
             | SP.Result { result; _ } -> if result.SP.partial <> None then 3 else 0
             | SP.Results rs -> List.fold_left (fun acc r -> max acc (code r)) 0 rs
             | SP.Error _ -> Cmd.Exit.some_error
             | SP.Overloaded _ -> Cmd.Exit.some_error
             | SP.Stats_reply _ | SP.Pong | SP.Bye -> 0
           in
           let c = code response in
           if c = 3 then
             Printf.eprintf
               "memrel: a query exhausted its resource budget; its result is partial\n";
           (match response with
            | SP.Overloaded _ ->
              Printf.eprintf "memrel: the daemon shed this query; rerun with --retry\n"
            | _ -> ());
           c
       end)
  in
  let wait_arg =
    Arg.(value & opt float 0. & info [ "wait" ] ~docv:"SECS"
           ~doc:"Retry the connection for up to SECS while the daemon starts.")
  in
  let max_work_arg =
    Arg.(value & opt (some nonneg_int) None & info [ "max-work" ] ~docv:"N"
           ~doc:"Per-query work-unit budget (states / candidates / chunks).")
  in
  let stats_flag =
    Arg.(value & flag & info [ "stats" ] ~doc:"Ask the daemon for cache and server counters.")
  in
  let ping_flag = Arg.(value & flag & info [ "ping" ] ~doc:"Liveness check.") in
  let shutdown_flag =
    Arg.(value & flag & info [ "shutdown" ] ~doc:"Ask the daemon to exit cleanly.")
  in
  let retry_arg =
    Arg.(value & opt int 0 & info [ "retry" ] ~docv:"N"
           ~doc:"Retry up to N attempts with exponential backoff and jitter when the \
                 daemon sheds the query (overloaded) or the connection fails; an \
                 overloaded reply's retry-after is honored as the backoff floor. 0 \
                 disables (one attempt).")
  in
  let queries_arg =
    Arg.(value & pos_all string [] & info [] ~docv:"QUERY"
           ~doc:"Queries, one per argument, e.g. 'verify sb tso', 'enumerate inc4 sc por', \
                 'axiom mp wo engine=solver', 'estimate settling tso gamma=2 trials=50000', \
                 'estimate shift gammas=3,2,5', 'estimate joint sc n=2 width=0.01'. Two or \
                 more queries form a batch (identical ones are computed once).")
  in
  Cmd.v
    (Cmd.info "query" ~exits:budget_exits
       ~doc:"Send queries to a running $(b,memrel serve) daemon. Each answer is prefixed \
             with its origin: [computed], [memory] or [disk].")
    Term.(const run $ socket_arg $ wait_arg $ deadline_arg $ max_work_arg $ max_mem_arg
          $ stats_flag $ ping_flag $ shutdown_flag $ retry_arg $ queries_arg)

let main_cmd =
  let doc = "reproduction of 'The Impact of Memory Models on Software Reliability'" in
  Cmd.group (Cmd.info "memrel" ~version:"1.0.0" ~doc)
    [ table1_cmd; figure1_cmd; figure2_cmd; window_cmd; shift_cmd; joint_cmd; scaling_cmd;
      litmus_cmd; enumerate_cmd; axiom_cmd; fences_cmd; verify_cmd; serve_cmd; query_cmd ]

let () = exit (Cmd.eval' main_cmd)
