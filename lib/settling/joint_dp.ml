module Model = Memrel_memmodel.Model

let max_replicas = Joint_dp_q.max_replicas

(* the chains over floats *)
module F = Joint_dp_q.Make (struct
  type t = float

  let zero, one, half = (0.0, 1.0, 0.5)
  let add, sub, mul = (( +. ), ( -. ), ( *. ))
  let pow x n = x ** float_of_int n
  let pow2 n = Float.ldexp 1.0 n
  let compare = Float.compare
  let is_zero x = x = 0.0
end)

let check_common ?(p = 0.5) model ~m =
  if not (p > 0.0 && p < 1.0) then invalid_arg "Joint_dp: p must be in (0,1)";
  if m < 1 then invalid_arg "Joint_dp: m >= 1 required";
  let s = Model.s model in
  if not (s > 0.0 && s < 1.0) then invalid_arg "Joint_dp: model s must be in (0,1)";
  s

let expect_product ?(p = 0.5) ?b_max model ~m ~n =
  let s = check_common ~p model ~m in
  if n < 2 || n - 1 > max_replicas then
    invalid_arg "Joint_dp.expect_product: n must be in [2, max_replicas + 1]";
  match Model.family model with
  | Model.Weak_ordering ->
    (* windows independent of the program: the joint factorizes *)
    let e i =
      let term gamma =
        Analytic_general.b_wo ~s gamma *. Float.pow 2.0 (float_of_int (-i * (gamma + 2)))
      in
      (Memrel_prob.Series.sum_to_convergence ~max_terms:300 term).value
    in
    List.fold_left (fun acc i -> acc *. e i) 1.0 (List.init (n - 1) succ)
  | Model.Custom -> invalid_arg "Joint_dp: Custom models are not supported"
  | (Model.Total_store_order | Model.Partial_store_order) when Option.value b_max ~default:1 < 1
    ->
    invalid_arg "Joint_dp: b_max >= 1 required"
  | family -> F.expect_product ~p ?b_max ~s family ~m ~n

let bottom_run_pmf ?(p = 0.5) ?b_max model ~m =
  let s = check_common ~p model ~m in
  (match Model.family model with
   | Model.Total_store_order | Model.Partial_store_order -> ()
   | _ -> invalid_arg "Joint_dp.bottom_run_pmf: TSO/PSO dynamics only");
  F.bottom_run_pmf ~p ?b_max ~s (Model.family model) ~m
