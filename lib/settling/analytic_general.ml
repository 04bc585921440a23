module C = Memrel_prob.Combinatorics
module Series = Memrel_prob.Series

let check_s s =
  if not (s > 0.0 && s < 1.0) then invalid_arg "Analytic_general: s must be in (0,1)"

(* the degenerate endpoints collapse the analysis: s = 0 is SC, s = 1
   diverges, p in {0,1} makes the TSO conditioning vacuous *)
let check_params ~p ~s =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Analytic_general: p must be in (0,1)";
  check_s s

let b_wo ~s gamma =
  if gamma < 0 then invalid_arg "Analytic_general.b_wo: gamma < 0";
  check_s s;
  (* critical LD climbs i steps w.p. s^i (1-s); the critical ST then climbs
     j <= i steps w.p. s^j (1-s), or j = i w.p. s^i (it stops at the LD
     automatically). gamma = i - j. *)
  if gamma = 0 then 1.0 /. (1.0 +. s)
  else (1.0 -. s) ** 2.0 *. (s ** float_of_int gamma) /. (1.0 -. (s *. s))

let b_wo_fenced ~s ~d gamma =
  if gamma < 0 then invalid_arg "Analytic_general.b_wo_fenced: gamma < 0";
  if d < 0 then invalid_arg "Analytic_general.b_wo_fenced: d < 0";
  check_s s;
  (* the critical LD climbs i <= d positions (s^i (1-s) for i < d, s^d when
     it runs into the fence); the critical ST then passes i - gamma of them *)
  let pr_disp i = if i < d then (s ** float_of_int i) *. (1.0 -. s) else s ** float_of_int d in
  if gamma > d then 0.0
  else if gamma = 0 then begin
    let acc = ref 0.0 in
    for i = 0 to d do
      acc := !acc +. (pr_disp i *. (s ** float_of_int i))
    done;
    !acc
  end
  else begin
    let acc = ref 0.0 in
    for i = gamma to d do
      acc := !acc +. (pr_disp i *. (s ** float_of_int (i - gamma)) *. (1.0 -. s))
    done;
    !acc
  end

let st_bottom_limit ~p ~s =
  check_params ~p ~s;
  (* fixed point of X = p + (1-p) s X: a fresh ST stays at the bottom; a
     fresh LD (prob 1-p) leaves a ST at the bottom exactly when the current
     bottom is a ST and the swap succeeds *)
  p /. (1.0 -. ((1.0 -. p) *. s))

let psi_pmf ~p ~mu ~q =
  if mu < 1 || q < 0 then invalid_arg "Analytic_general.psi_pmf: mu >= 1, q >= 0 required";
  C.binomial_float (mu + q - 1) q *. (p ** float_of_int mu) *. ((1.0 -. p) ** float_of_int q)

(* H_s(q, c) = sum over multisets of q parts in {1..c} of prod s^part,
   memoized per s (callers sweep a handful of s values) *)
let hom_sym_cache : (float, (int * int, float) Hashtbl.t) Hashtbl.t = Hashtbl.create 8

let hom_sym ~s q c =
  let tbl =
    match Hashtbl.find_opt hom_sym_cache s with
    | Some t -> t
    | None ->
      let t = Hashtbl.create 256 in
      Hashtbl.add hom_sym_cache s t;
      t
  in
  let rec go q c =
    if q = 0 then 1.0
    else if c = 0 then 0.0
    else begin
      match Hashtbl.find_opt tbl (q, c) with
      | Some v -> v
      | None ->
        let v = go q (c - 1) +. ((s ** float_of_int c) *. go (q - 1) c) in
        Hashtbl.add tbl (q, c) v;
        v
    end
  in
  go q c

let f_mu_given_q ~s ~mu ~q =
  if mu < 1 || q < 0 then invalid_arg "Analytic_general.f_mu_given_q: mu >= 1, q >= 0 required";
  if q = 0 then 1.0 else hom_sym ~s q mu /. C.binomial_float (mu + q - 1) q

let l_mu ~p ~s mu =
  check_params ~p ~s;
  if mu < 0 then invalid_arg "Analytic_general.l_mu: mu < 0"
  else if mu = 0 then 1.0 -. st_bottom_limit ~p ~s
  else begin
    let x_inf = st_bottom_limit ~p ~s in
    let term q =
      psi_pmf ~p ~mu ~q
      *. f_mu_given_q ~s ~mu ~q
      *. (1.0 -. (x_inf *. (s ** float_of_int q)))
    in
    (Series.sum_to_convergence ~max_terms:400 term).value
  end

let b_tso ~p ~s gamma =
  check_params ~p ~s;
  if gamma < 0 then invalid_arg "Analytic_general.b_tso: gamma < 0";
  if gamma = 0 then begin
    (* stops immediately: above is a LD (L_0), or a ST and the swap fails *)
    let l0 = l_mu ~p ~s 0 in
    l0 +. ((1.0 -. l0) *. (1.0 -. s))
  end
  else begin
    let sg = s ** float_of_int gamma in
    let head = sg *. l_mu ~p ~s gamma in
    let tail =
      Series.sum_range (fun mu -> sg *. (1.0 -. s) *. l_mu ~p ~s mu) (gamma + 1) (gamma + 60)
    in
    head +. tail
  end

let expect_pow2_window ~b ~k =
  if k < 1 then invalid_arg "Analytic_general.expect_pow2_window: k >= 1 required";
  let term gamma = b gamma *. Float.pow 2.0 (float_of_int (-k * (gamma + 2))) in
  (Series.sum_to_convergence ~max_terms:300 term).value

let pr_a_n2 ~b = (2.0 /. 3.0) *. expect_pow2_window ~b ~k:1
