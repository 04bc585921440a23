(* Runs the built memrel binary and checks exit codes and stderr. *)

let cli = Filename.concat (Filename.concat ".." "..") (Filename.concat "bin" "memrel_cli.exe")

(* (exit code, stdout, stderr lines) of [memrel args] *)
let memrel args =
  let out = Filename.temp_file "memrel_cli" ".out" in
  let err = Filename.temp_file "memrel_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s %s > %s 2> %s" (Filename.quote cli) args (Filename.quote out)
             (Filename.quote err))
      in
      let read f = In_channel.with_open_bin f In_channel.input_all in
      let lines = String.split_on_char '\n' (String.trim (read err)) in
      (code, read out, List.filter (( <> ) "") lines))

let with_checkpoint f =
  let file = Filename.temp_file "memrel_cli" ".ck" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

(* a shift checkpoint resumed by another estimator: a one-line error and
   exit 123, never another estimator's numbers or a crash *)
let resume_refused other () =
  with_checkpoint @@ fun ck ->
  let code, _, _ = memrel ("shift --seed 7 --trials 100000 --jobs 1 --checkpoint " ^ ck) in
  Alcotest.(check int) "checkpointed shift run" 0 code;
  let code, out, err = memrel (Printf.sprintf "%s --resume %s" other ck) in
  Alcotest.(check int) "exit code" 123 code;
  Alcotest.(check bool) ("no estimate printed: " ^ out) false
    (Astring.String.is_infix ~affix:"simulated" out);
  match err with
  | [ line ] ->
    Alcotest.(check bool) line true
      (Astring.String.is_prefix ~affix:"memrel: checkpoint was written by \"shift" line)
  | _ -> Alcotest.failf "expected one stderr line, got %d" (List.length err)

(* a value below an option's lower bound is a cmdliner usage error (exit
   124) naming the bound, never a wrong answer or an internal error *)
let usage_error ?(affix = "expected a positive integer") args () =
  let code, _, err = memrel args in
  (* cmdliner wraps long messages: compare with the whitespace collapsed *)
  let err =
    String.concat " " (List.concat_map (Astring.String.fields ~empty:false) err)
  in
  Alcotest.(check int) (args ^ ": exit code") 124 code;
  Alcotest.(check bool) (args ^ ": names the bound") true (Astring.String.is_infix ~affix err);
  Alcotest.(check bool) (args ^ ": no internal error") false
    (Astring.String.is_infix ~affix:"internal error" err)

(* a fixed-seed estimate printed end to end: any drift in the draw stream
   of the settling kernel, the Par schedule or the printing changes a digit *)
let golden args expected () =
  let code, out, err = memrel args in
  Alcotest.(check int) (args ^ ": exit code") 0 code;
  Alcotest.(check (list string)) (args ^ ": stderr") [] err;
  Alcotest.(check string) args (String.concat "" expected) out

(* a test name the CLI cannot resolve: a one-line error and exit 123,
   reached before anything is built, even for an incN far past the bound *)
let unknown_test name () =
  let t0 = Unix.gettimeofday () in
  let code, _, err = memrel ("enumerate " ^ name) in
  Alcotest.(check bool) "refused at once" true (Unix.gettimeofday () -. t0 < 5.);
  Alcotest.(check int) "exit code" 123 code;
  match err with
  | [ line ] ->
    Alcotest.(check bool) line true (Astring.String.is_infix ~affix:"unknown litmus test" line)
  | _ -> Alcotest.failf "expected one stderr line, got %d" (List.length err)

let golden_window =
  [
    "critical-window growth Pr[B_gamma] under TSO (p = 0.50, s = 0.50)\n";
    "\n";
    " gamma     analytic     dp(m=16)           mc\n";
    "     0     0.666667     0.666667     0.664640\n";
    "     1     0.238095     0.238095     0.238660\n";
    "     2     0.069841     0.069841     0.070800\n";
    "     3     0.018843     0.018843     0.019470\n";
    "     4     0.004890     0.004890     0.004880\n";
    "     5     0.001245     0.001245     0.001190\n";
    "     6     0.000314     0.000314     0.000220\n";
    "     7     0.000079     0.000079     0.000070\n";
    "     8     0.000020     0.000020     0.000060\n";
  ]

let golden_joint =
  [
    "Pr[A] (WO, n=2): simulated 0.131340 [0.129261, 0.133448]\n";
    "exact: 7/54\n";
  ]

(* every float DP column the CLI prints, pinned byte for byte: the exact
   window DP under WO and under PSO off the normal form, and the joint
   coupled-chain DP under TSO and PSO *)
let golden_window_wo =
  [
    "critical-window growth Pr[B_gamma] under WO (p = 0.50, s = 0.50)\n";
    "\n";
    " gamma     analytic     dp(m=16)           mc\n";
    "     0     0.666667     0.666667     0.667120\n";
    "     1     0.166667     0.166667     0.166940\n";
    "     2     0.083333     0.083333     0.083080\n";
    "     3     0.041667     0.041667     0.040600\n";
    "     4     0.020833     0.020833     0.021240\n";
    "     5     0.010417     0.010417     0.010980\n";
    "     6     0.005208     0.005208     0.004900\n";
    "     7     0.002604     0.002604     0.002470\n";
    "     8     0.001302     0.001302     0.001350\n";
  ]

let golden_window_pso =
  [
    "critical-window growth Pr[B_gamma] under PSO (p = 0.40, s = 0.30)\n";
    "\n";
    " gamma     analytic     dp(m=16)           mc\n";
    "     0          nan     0.893515     0.893080\n";
    "     1          nan     0.092998     0.093590\n";
    "     2          nan     0.011843     0.011740\n";
    "     3          nan     0.001446     0.001440\n";
    "     4          nan     0.000174     0.000140\n";
    "     5          nan     0.000021     0.000010\n";
    "     6          nan     0.000003     0.000000\n";
    "     7          nan     0.000000     0.000000\n";
    "     8          nan     0.000000     0.000000\n";
  ]

let golden_joint_tso =
  [
    "Pr[A] (TSO, n=3): simulated 0.002690 [0.002388, 0.003031]\n";
    "paper bounds (independence approx): 2.5499e-03 .. 2.7023e-03; exact series 2.6294e-03\n";
    "joint-exact (correlated, coupled-chain DP): 2.7034e-03\n";
    "semi-analytic (correlated, MC): 2.7083e-03\n";
  ]

let golden_joint_pso =
  [
    "Pr[A] (PSO, n=3): simulated 0.003180 [0.002850, 0.003549]\n";
    "joint-exact (correlated, coupled-chain DP): 3.3699e-03\n";
    "semi-analytic (correlated, MC): 3.3686e-03\n";
  ]

let () =
  Alcotest.run "cli"
    [
      ( "checkpoint identity",
        [
          Alcotest.test_case "joint refuses a shift checkpoint" `Quick
            (resume_refused "joint --model sc -n 2 --seed 7 --trials 100000 --jobs 1");
          Alcotest.test_case "window refuses a shift checkpoint" `Quick
            (resume_refused "window --seed 7 --trials 100000 --jobs 1");
        ] );
      ( "fixed-seed output",
        [
          Alcotest.test_case "window --seed 7" `Quick
            (golden "window --seed 7 --trials 100000 --jobs 1" golden_window);
          Alcotest.test_case "joint --model wo -n 2 --seed 7" `Quick
            (golden "joint --model wo -n 2 --seed 7 --trials 100000 --jobs 1" golden_joint);
          Alcotest.test_case "window --model wo --seed 7" `Quick
            (golden "window --model wo --seed 7 --trials 100000 --jobs 1" golden_window_wo);
          Alcotest.test_case "window --model pso -s 0.3 -p 0.4 --seed 7" `Quick
            (golden "window --model pso -s 0.3 -p 0.4 --seed 7 --trials 100000 --jobs 1"
               golden_window_pso);
          Alcotest.test_case "joint --model tso -n 3 --seed 7" `Quick
            (golden "joint --model tso -n 3 --seed 7 --trials 100000 --jobs 1" golden_joint_tso);
          Alcotest.test_case "joint --model pso -n 3 --seed 7" `Quick
            (golden "joint --model pso -n 3 --seed 7 --trials 100000 --jobs 1" golden_joint_pso);
        ] );
      ( "positive counts",
        List.map
          (fun args -> Alcotest.test_case args `Quick (usage_error args))
          [
            "window --trials 0";
            "shift --trials 0";
            "joint --trials=-3";
            "fences --trials 0";
            "shift --target-width 0.01 --max-trials 0";
            "joint --checkpoint-every 0";
            "enumerate sb --model wo --window 0";
            "axiom sb --model wo --window 0";
          ] );
      ( "nonnegative budgets",
        (* the socket path cannot be bound, so a flag that slipped past
           the parser fails fast instead of starting a daemon *)
        List.map
          (fun (affix, args) -> Alcotest.test_case args `Quick (usage_error ~affix args))
          [
            ("expected a number >= 0", "window --deadline=-1");
            ("expected an integer >= 0", "enumerate inc3 --max-mem=-5");
            ("expected an integer >= 0", "axiom sb --max-candidates=-1");
            ("expected a positive integer", "enumerate inc3 --extmem --mem-budget=-3");
            ("expected a number >= 0", "serve --max-deadline=-1 --socket /nonexistent/m.sock");
            ("expected an integer >= 0", "serve --max-work=-1 --socket /nonexistent/m.sock");
            ("expected an integer >= 0", "serve --max-mem=-1 --socket /nonexistent/m.sock");
            ("expected a positive integer", "serve --mem-budget=0 --socket /nonexistent/m.sock");
            ("expected an integer >= 0", "query --max-work=-1 --socket /nonexistent/m.sock ping");
          ] );
      ( "lower bounds",
        [
          Alcotest.test_case "scaling --n-max 1" `Quick
            (usage_error ~affix:"expected an integer >= 2" "scaling --n-max 1");
        ] );
      ( "unknown tests",
        [
          Alcotest.test_case "enumerate nosuchtest" `Quick (unknown_test "nosuchtest");
          Alcotest.test_case "enumerate inc1000000000" `Quick (unknown_test "inc1000000000");
          Alcotest.test_case "enumerate inc05" `Quick (unknown_test "inc05");
        ] );
    ]
