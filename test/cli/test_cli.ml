(* Runs the built memrel binary and checks exit codes and stderr. *)

let cli = Filename.concat (Filename.concat ".." "..") (Filename.concat "bin" "memrel_cli.exe")

(* (exit code, stdout, stderr lines) of [memrel args], run with the
   environment assignments [env] (e.g. "TMPDIR=/some/dir ") *)
let memrel ?(env = "") args =
  let out = Filename.temp_file "memrel_cli" ".out" in
  let err = Filename.temp_file "memrel_cli" ".err" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ out; err ])
    (fun () ->
      let code =
        Sys.command
          (Printf.sprintf "%s%s %s > %s 2> %s" env (Filename.quote cli) args (Filename.quote out)
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
let golden ?(mask = Fun.id) args expected () =
  let code, out, err = memrel args in
  Alcotest.(check int) (args ^ ": exit code") 0 code;
  Alcotest.(check (list string)) (args ^ ": stderr") [] err;
  Alcotest.(check string) args (String.concat "" expected) (mask out)

(* an enumerate run's "states N (R states/sec, Ts)" line with the rate and
   elapsed time blanked to "(-)": everything else is deterministic *)
let mask_rate out =
  String.concat "\n"
    (List.map
       (fun line ->
         match Astring.String.cut ~sep:" (" line with
         | Some (head, rest) when Astring.String.is_prefix ~affix:"states " line -> (
           match Astring.String.cut ~sep:")" rest with
           | Some (_, tail) -> head ^ " (-)" ^ tail
           | None -> line)
         | _ -> line)
       (String.split_on_char '\n' out))

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

(* enumeration and litmus output, pinned byte for byte except an enumerate
   run's states/sec and elapsed fields, which [mask_rate] blanks *)

let golden_litmus =
  [
    "inc: the canonical atomicity violation (Section 2.2): two unsynchronized increments; x = 1 manifests the bug and is allowed under every model, including SC\n";
    "  SC   relaxed outcome ALLOWED (expected allowed) \n";
    "  TSO  relaxed outcome ALLOWED (expected allowed) \n";
    "  PSO  relaxed outcome ALLOWED (expected allowed) \n";
    "  WO   relaxed outcome ALLOWED (expected allowed) \n";
    "inc+rmw: the canonical bug FIXED with an atomic fetch-and-add: x = 1 becomes unreachable under every model (the Section 2.2 locking discussion, primitive form)\n";
    "  SC   relaxed outcome forbidden (expected forbidden) \n";
    "  TSO  relaxed outcome forbidden (expected forbidden) \n";
    "  PSO  relaxed outcome forbidden (expected forbidden) \n";
    "  WO   relaxed outcome forbidden (expected forbidden) \n";
    "sb: store buffering: both threads store then load the other location\n";
    "  SC   relaxed outcome forbidden (expected forbidden) \n";
    "  TSO  relaxed outcome ALLOWED (expected allowed) \n";
    "  PSO  relaxed outcome ALLOWED (expected allowed) \n";
    "  WO   relaxed outcome ALLOWED (expected allowed) \n";
    "sb+fence: store buffering with full fences: the relaxed outcome is forbidden everywhere\n";
    "  SC   relaxed outcome forbidden (expected forbidden) \n";
    "  TSO  relaxed outcome forbidden (expected forbidden) \n";
    "  PSO  relaxed outcome forbidden (expected forbidden) \n";
    "  WO   relaxed outcome forbidden (expected forbidden) \n";
    "sb+fence1: store buffering fenced in one thread only: the relaxed outcome survives\n";
    "  SC   relaxed outcome forbidden (expected forbidden) \n";
    "  TSO  relaxed outcome ALLOWED (expected allowed) \n";
    "  PSO  relaxed outcome ALLOWED (expected allowed) \n";
    "  WO   relaxed outcome ALLOWED (expected allowed) \n";
    "mp: message passing: data then flag; reader sees flag but stale data?\n";
    "  SC   relaxed outcome forbidden (expected forbidden) \n";
    "  TSO  relaxed outcome forbidden (expected forbidden) \n";
    "  PSO  relaxed outcome ALLOWED (expected allowed) \n";
    "  WO   relaxed outcome ALLOWED (expected allowed) \n";
    "mp+ra: message passing with release/acquire fences: forbidden everywhere\n";
    "  SC   relaxed outcome forbidden (expected forbidden) \n";
    "  TSO  relaxed outcome forbidden (expected forbidden) \n";
    "  PSO  relaxed outcome forbidden (expected forbidden) \n";
    "  WO   relaxed outcome forbidden (expected forbidden) \n";
    "lb: load buffering: loads see the other thread's later store\n";
    "  SC   relaxed outcome forbidden (expected forbidden) \n";
    "  TSO  relaxed outcome forbidden (expected forbidden) \n";
    "  PSO  relaxed outcome forbidden (expected forbidden) \n";
    "  WO   relaxed outcome ALLOWED (expected allowed) \n";
    "corr: coherence: two reads of one location must not see new-then-old\n";
    "  SC   relaxed outcome forbidden (expected forbidden) \n";
    "  TSO  relaxed outcome forbidden (expected forbidden) \n";
    "  PSO  relaxed outcome forbidden (expected forbidden) \n";
    "  WO   relaxed outcome forbidden (expected forbidden) \n";
    "2+2w: 2+2W: two threads write both locations in opposite orders\n";
    "  SC   relaxed outcome forbidden (expected forbidden) \n";
    "  TSO  relaxed outcome forbidden (expected forbidden) \n";
    "  PSO  relaxed outcome ALLOWED (expected allowed) \n";
    "  WO   relaxed outcome ALLOWED (expected allowed) \n";
    "wrc: write-to-read causality across three threads\n";
    "  SC   relaxed outcome forbidden (expected forbidden) \n";
    "  TSO  relaxed outcome forbidden (expected forbidden) \n";
    "  PSO  relaxed outcome forbidden (expected forbidden) \n";
    "  WO   relaxed outcome ALLOWED (expected allowed) \n";
    "iriw: independent reads of independent writes: readers disagree on store order\n";
    "  SC   relaxed outcome forbidden (expected forbidden) \n";
    "  TSO  relaxed outcome forbidden (expected forbidden) \n";
    "  PSO  relaxed outcome forbidden (expected forbidden) \n";
    "  WO   relaxed outcome ALLOWED (expected allowed) \n";
  ]

let golden_litmus_file =
  [
    "sb: store buffering: both threads store then load the other location\n";
    "  SC   relaxed outcome forbidden (3 reachable outcomes)\n";
    "  TSO  relaxed outcome ALLOWED (4 reachable outcomes)\n";
    "  PSO  relaxed outcome ALLOWED (4 reachable outcomes)\n";
    "  WO   relaxed outcome ALLOWED (4 reachable outcomes)\n";
  ]

let golden_enumerate_tso =
  [
    "inc4 under TSO: 4 distinct outcomes, 109 terminal states\n";
    "  x=1                                  23 terminal states\n";
    "  x=2                                  26 terminal states\n";
    "  x=3                                  36 terminal states\n";
    "  x=4                                  24 terminal states\n";
    "relaxed outcome x=1: ALLOWED\n";
    "states 3931 (-); transitions 8828; dedup hits 4898\n";
    "max depth 16; max frontier 25; POR: ample at 0 states, 0 transitions pruned\n";
  ]

let golden_enumerate_extmem =
  [
    "inc4 under TSO: 4 distinct outcomes, 109 terminal states\n";
    "  x=1                                  23 terminal states\n";
    "  x=2                                  26 terminal states\n";
    "  x=3                                  36 terminal states\n";
    "  x=4                                  24 terminal states\n";
    "relaxed outcome x=1: ALLOWED\n";
    "states 3931 (-); transitions 8828; dedup hits 4898\n";
    "max depth 16; max frontier 557; POR: ample at 0 states, 0 transitions pruned\n";
    "extmem: 17 levels (peak 557 states); 17 spill runs, 55176 bytes, 0 overflow runs, 0 merges\n";
  ]

let golden_enumerate_por =
  [
    "sb under WO (POR): 4 distinct outcomes, 4 terminal states\n";
    "  0:r0=0 1:r0=0                         1 terminal state\n";
    "  0:r0=0 1:r0=1                         1 terminal state\n";
    "  0:r0=1 1:r0=0                         1 terminal state\n";
    "  0:r0=1 1:r0=1                         1 terminal state\n";
    "relaxed outcome 0:r0=0 1:r0=0: ALLOWED\n";
    "states 25 (-); transitions 38; dedup hits 14\n";
    "max depth 4; max frontier 7; POR: ample at 2 states, 2 transitions pruned\n";
  ]

(* Theorem 6.3's table: log2 Pr[A] from the exact window transforms; from
   n = 28 on Pr[A] is below the float range, so these rows come from the
   log2 of an exact rational *)
let golden_scaling =
  [
    "   n   log2Pr(SC)   log2Pr(WO)  log2Pr(TSO)      nSC      nWO     nTSO  SCadv/n^2\n";
    "   2        -2.58        -2.95        -2.90   0.6462   0.7369   0.7241   0.090643\n";
    "   3        -7.81        -8.66        -8.57   0.8675   0.9617   0.9523   0.094222\n";
    "   4       -15.71       -17.10       -17.00   0.9821   1.0687   1.0623   0.086603\n";
    "   5       -26.35       -28.29       -28.18   1.0539   1.1318   1.1273   0.077901\n";
    "   6       -39.74       -42.26       -42.14   1.1039   1.1739   1.1707   0.070030\n";
    "   7       -55.92       -59.02       -58.90   1.1412   1.2045   1.2021   0.063273\n";
    "   8       -74.91       -78.60       -78.48   1.1705   1.2281   1.2262   0.057539\n";
    "   9       -96.74      -101.01      -100.89   1.1943   1.2470   1.2455   0.052668\n";
    "  10      -121.42      -126.27      -126.15   1.2142   1.2627   1.2615   0.048503\n";
    "  11      -148.96      -154.39      -154.27   1.2311   1.2760   1.2750   0.044917\n";
    "  12      -179.37      -185.39      -185.27   1.2456   1.2874   1.2866   0.041804\n";
    "  13      -212.67      -219.28      -219.16   1.2584   1.2975   1.2968   0.039080\n";
    "  14      -248.86      -256.05      -255.93   1.2697   1.3064   1.3058   0.036681\n";
    "  15      -287.96      -295.73      -295.61   1.2798   1.3144   1.3138   0.034553\n";
    "  16      -329.96      -338.32      -338.20   1.2889   1.3216   1.3211   0.032654\n";
  ]

let golden_scaling_40 =
  [
    "   n   log2Pr(SC)   log2Pr(WO)  log2Pr(TSO)      nSC      nWO     nTSO  SCadv/n^2\n";
    "   2        -2.58        -2.95        -2.90   0.6462   0.7369   0.7241   0.090643\n";
    "   3        -7.81        -8.66        -8.57   0.8675   0.9617   0.9523   0.094222\n";
    "   4       -15.71       -17.10       -17.00   0.9821   1.0687   1.0623   0.086603\n";
    "   5       -26.35       -28.29       -28.18   1.0539   1.1318   1.1273   0.077901\n";
    "   6       -39.74       -42.26       -42.14   1.1039   1.1739   1.1707   0.070030\n";
    "   7       -55.92       -59.02       -58.90   1.1412   1.2045   1.2021   0.063273\n";
    "   8       -74.91       -78.60       -78.48   1.1705   1.2281   1.2262   0.057539\n";
    "   9       -96.74      -101.01      -100.89   1.1943   1.2470   1.2455   0.052668\n";
    "  10      -121.42      -126.27      -126.15   1.2142   1.2627   1.2615   0.048503\n";
    "  11      -148.96      -154.39      -154.27   1.2311   1.2760   1.2750   0.044917\n";
    "  12      -179.37      -185.39      -185.27   1.2456   1.2874   1.2866   0.041804\n";
    "  13      -212.67      -219.28      -219.16   1.2584   1.2975   1.2968   0.039080\n";
    "  14      -248.86      -256.05      -255.93   1.2697   1.3064   1.3058   0.036681\n";
    "  15      -287.96      -295.73      -295.61   1.2798   1.3144   1.3138   0.034553\n";
    "  16      -329.96      -338.32      -338.20   1.2889   1.3216   1.3211   0.032654\n";
    "  17      -374.87      -383.81      -383.69   1.2971   1.3281   1.3277   0.030949\n";
    "  18      -422.70      -432.23      -432.11   1.3046   1.3340   1.3337   0.029412\n";
    "  19      -473.45      -483.57      -483.45   1.3115   1.3395   1.3392   0.028017\n";
    "  20      -527.13      -537.83      -537.71   1.3178   1.3446   1.3443   0.026748\n";
    "  21      -583.74      -595.02      -594.90   1.3237   1.3493   1.3490   0.025588\n";
    "  22      -643.28      -655.15      -655.03   1.3291   1.3536   1.3534   0.024523\n";
    "  23      -705.76      -718.21      -718.09   1.3341   1.3577   1.3574   0.023543\n";
    "  24      -771.17      -784.21      -784.09   1.3388   1.3615   1.3613   0.022637\n";
    "  25      -839.53      -853.15      -853.03   1.3432   1.3650   1.3648   0.021799\n";
    "  26      -910.83      -925.04      -924.91   1.3474   1.3684   1.3682   0.021019\n";
    "  27      -985.07      -999.87      -999.74   1.3513   1.3716   1.3714   0.020294\n";
    "  28     -1062.26     -1077.64     -1077.52   1.3549   1.3745   1.3744   0.019616\n";
    "  29     -1142.41     -1158.37     -1158.25   1.3584   1.3774   1.3772   0.018982\n";
    "  30     -1225.50     -1242.05     -1241.93   1.3617   1.3801   1.3799   0.018388\n";
    "  31     -1311.54     -1328.68     -1328.56   1.3648   1.3826   1.3825   0.017829\n";
    "  32     -1400.54     -1418.26     -1418.14   1.3677   1.3850   1.3849   0.017304\n";
    "  33     -1492.50     -1510.80     -1510.68   1.3705   1.3873   1.3872   0.016808\n";
    "  34     -1587.41     -1606.30     -1606.18   1.3732   1.3895   1.3894   0.016340\n";
    "  35     -1685.28     -1704.76     -1704.64   1.3757   1.3916   1.3915   0.015897\n";
    "  36     -1786.11     -1806.17     -1806.05   1.3782   1.3937   1.3936   0.015477\n";
    "  37     -1889.90     -1910.55     -1910.43   1.3805   1.3956   1.3955   0.015079\n";
    "  38     -1996.66     -2017.88     -2017.76   1.3827   1.3974   1.3973   0.014701\n";
    "  39     -2106.37     -2128.18     -2128.06   1.3849   1.3992   1.3991   0.014342\n";
    "  40     -2219.05     -2241.45     -2241.33   1.3869   1.4009   1.4008   0.013999\n";
  ]

(* -- the spill lifecycle of enumerate -------------------------------------- *)

module P = Memrel_service.Protocol
module Engine = Memrel_service.Engine
module Model = Memrel_memmodel.Model

let with_dir f =
  let dir = Filename.temp_dir "memrel_cli" ".d" in
  Fun.protect
    ~finally:(fun () -> ignore (Sys.command ("rm -rf " ^ Filename.quote dir)))
    (fun () -> f dir)

let manifest dir = Sys.file_exists (Filename.concat dir "MANIFEST")
let has line affix = Astring.String.is_infix ~affix line

(* a state-capped run exits 3 keeping its level checkpoint; --resume
   finishes it with the uninterrupted totals and gives the disk back *)
let spill_resume () =
  with_dir @@ fun root ->
  let d = Filename.quote (Filename.concat root "spill") in
  let code, _, _ = memrel ("enumerate inc4 --spill-dir " ^ d ^ " --max-states 1500") in
  Alcotest.(check int) "capped run exit code" 3 code;
  Alcotest.(check bool) "checkpoint kept" true (manifest (Filename.concat root "spill"));
  let code, out, _ = memrel ("enumerate inc4 --spill-dir " ^ d ^ " --resume") in
  Alcotest.(check int) "resumed run exit code" 0 code;
  Alcotest.(check bool) "resumed at level 10" true (has out "resumed at level 10");
  Alcotest.(check bool) "uninterrupted totals" true (has out "states 3931 (");
  Alcotest.(check bool) "checkpoint removed" false (manifest (Filename.concat root "spill"))

(* the temp-dir default leaves nothing behind after a complete run *)
let temp_spill_removed () =
  with_dir @@ fun tmp ->
  let code, _, _ =
    memrel ~env:("TMPDIR=" ^ Filename.quote tmp ^ " ") "enumerate inc4 --model tso --extmem"
  in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check (array string)) "TMPDIR left empty" [||] (Sys.readdir tmp)

let enum_key test =
  match
    Engine.cache_key
      (P.Enumerate { test; family = Model.Total_store_order; window = 8; por = false })
  with
  | Ok key -> key
  | Error e -> Alcotest.fail e.Engine.message

(* a checkpoint resumes only the enumeration that wrote it, named by the
   daemon's key *)
let spill_other_test_refused () =
  with_dir @@ fun root ->
  let d = Filename.quote root in
  let code, _, _ = memrel ("enumerate inc4 --spill-dir " ^ d ^ " --max-states 1500") in
  Alcotest.(check int) "capped run exit code" 3 code;
  let code, out, err = memrel ("enumerate inc3 --spill-dir " ^ d ^ " --resume") in
  Alcotest.(check int) "exit code" 123 code;
  Alcotest.(check string) "nothing printed" "" out;
  match err with
  | [ line ] ->
    Alcotest.(check bool) line true (has line (enum_key "inc4") && has line (enum_key "inc3"))
  | _ -> Alcotest.failf "expected one stderr line, got %d" (List.length err)

(* the CLI's outcome lines, terminal and state counts are the daemon
   engine's Enumerate payload, rendered *)
let same_as_engine () =
  let render o = String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) o) in
  List.iter
    (fun test ->
      List.iter
        (fun (family, model) ->
          List.iter
            (fun por ->
              let args =
                Printf.sprintf "enumerate %s --model %s%s" test model (if por then " --por" else "")
              in
              let q = P.Enumerate { test; family; window = 8; por } in
              match Engine.run ~caps:Engine.no_caps q P.no_limits with
              | Ok { P.payload = P.Outcomes { entries; terminals; states }; partial = None } ->
                let code, out, _ = memrel args in
                Alcotest.(check int) (args ^ ": exit code") 0 code;
                let lines = String.split_on_char '\n' out in
                let first = List.hd lines in
                Alcotest.(check bool) (args ^ ": counts") true
                  (has first
                     (Printf.sprintf ": %d distinct outcomes, %d terminal states"
                        (List.length entries) terminals));
                Alcotest.(check (list string)) (args ^ ": outcome lines")
                  (List.map
                     (fun (o, k) ->
                       Printf.sprintf "  %-30s %8d terminal state%s" (render o) k
                         (if k = 1 then "" else "s"))
                     entries)
                  (List.filter (fun l -> String.starts_with ~prefix:"  " l) lines);
                Alcotest.(check bool) (args ^ ": states") true
                  (List.mem (Printf.sprintf "states %d (" states)
                     (List.map
                        (fun l ->
                          match String.index_opt l '(' with
                          | Some i -> String.sub l 0 (i + 1)
                          | None -> l)
                        lines))
              | _ -> Alcotest.failf "%s: no complete engine payload" args)
            [ false; true ])
        [
          (Model.Sequential_consistency, "sc"); (Model.Total_store_order, "tso");
          (Model.Partial_store_order, "pso"); (Model.Weak_ordering, "wo");
        ])
    (Memrel_machine.Litmus.names @ [ "inc3"; "inc4" ])

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
      ( "enumeration output",
        [
          Alcotest.test_case "litmus" `Quick (golden "litmus" golden_litmus);
          Alcotest.test_case "litmus --file examples/litmus/sb.litmus" `Quick
            (golden "litmus --file ../../examples/litmus/sb.litmus" golden_litmus_file);
          Alcotest.test_case "enumerate inc4 --model tso" `Quick
            (golden ~mask:mask_rate "enumerate inc4 --model tso" golden_enumerate_tso);
          Alcotest.test_case "enumerate inc4 --model tso --extmem --mem-budget 1" `Quick
            (golden ~mask:mask_rate "enumerate inc4 --model tso --extmem --mem-budget 1"
               golden_enumerate_extmem);
          Alcotest.test_case "enumerate sb --model wo --por" `Quick
            (golden ~mask:mask_rate "enumerate sb --model wo --por" golden_enumerate_por);
        ] );
      ( "scaling output",
        [
          Alcotest.test_case "scaling" `Quick (golden "scaling" golden_scaling);
          Alcotest.test_case "scaling --n-max 40" `Quick
            (golden "scaling --n-max 40" golden_scaling_40);
        ] );
      ( "spill lifecycle",
        [
          Alcotest.test_case "capped run keeps, --resume finishes and removes" `Quick
            spill_resume;
          Alcotest.test_case "temp spill dir removed after a complete run" `Quick
            temp_spill_removed;
          Alcotest.test_case "--resume refuses another test's spill dir" `Quick
            spill_other_test_refused;
          Alcotest.test_case "enumerate prints the engine's payload" `Quick same_as_engine;
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
            ("expected an integer >= 0", "enumerate inc3 --max-states=-5");
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
          Alcotest.test_case "enumerate sb --model wo --window 5000" `Quick
            (usage_error ~affix:"expected an integer <= 1024"
               "enumerate sb --model wo --window 5000");
        ]
        @ List.map
            (fun (affix, args) -> Alcotest.test_case args `Quick (usage_error ~affix args))
            [
              ("expected an integer >= 2", "joint -n 1");
              ("expected a number in (0, 1)", "window -p 2");
              ("expected a number in (0, 1)", "window -s 0");
              ("expected 1 to 8 lengths >= 0", "shift --gammas=-1,2");
              ("expected 1 to 8 lengths >= 0", "shift --gammas 1,2,3,4,5,6,7,8,9");
              ("expected a number in (0, 1]", "shift --target-width 0");
            ] );
      ( "unknown tests",
        [
          Alcotest.test_case "enumerate nosuchtest" `Quick (unknown_test "nosuchtest");
          Alcotest.test_case "enumerate inc1000000000" `Quick (unknown_test "inc1000000000");
          Alcotest.test_case "enumerate inc05" `Quick (unknown_test "inc05");
        ] );
    ]
