module SA = Memrel_settling.Analytic
module Asym = Memrel_shift.Asymptotic

type row = {
  n : int;
  log2_sc : float;
  log2_wo : float;
  log2_tso : float;
  log2_tso_lo : float;
  log2_tso_hi : float;
}

let log2f x = Float.log x /. Float.log 2.0

let log2_pr w ~n =
  Asym.log2_disjoint_symmetric ~log2_expect:(fun i -> log2f (SA.expect_pow2_window w ~k:i)) ~n

(* exact rational expectations keep the WO row exact even where the float
   series would round *)
let log2_pr_exact w ~n =
  let log2_expect i = Memrel_prob.Rational.log2 (SA.expect_pow2_window_exact w ~k:i) in
  Asym.log2_disjoint_symmetric ~log2_expect ~n

let row n =
  if n < 2 then invalid_arg "Scaling.row: n >= 2 required";
  {
    n;
    log2_sc = Asym.log2_pr_sc n;
    log2_wo = log2_pr_exact `WO ~n;
    log2_tso = log2_pr `TSO_series ~n;
    log2_tso_lo = log2_pr_exact `TSO_lower ~n;
    log2_tso_hi = log2_pr_exact `TSO_upper ~n;
  }

let table ?jobs ~n_max () =
  if n_max < 2 then invalid_arg "Scaling.table: n_max >= 2 required";
  (* rows are independent pure computations (the exact-rational WO/TSO
     series dominate at large n) — an embarrassingly parallel map *)
  Memrel_prob.Par.map_list ?jobs row (List.init (n_max - 1) (fun i -> i + 2))

let normalized_exponent ~log2_pr ~n = Asym.normalized_exponent ~log2_pr ~n

let gap_ratio_log2 r = (r.log2_sc -. r.log2_wo, r.log2_sc -. r.log2_tso)
