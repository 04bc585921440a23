module Op = Memrel_memmodel.Op
module Model = Memrel_memmodel.Model
module W = Window_walk

let max_m = 18

let check ?(p = 0.5) m =
  if m < 0 || m > max_m then invalid_arg "Exact_dp: m out of [0, max_m]";
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Exact_dp: p out of [0,1]"

let weights ~p model m =
  let kind b = if b = 1 then Op.ST else Op.LD in
  let rho e l = Model.swap_probability model ~earlier:(kind e) ~later:(kind l) in
  W.weights ~one:1.0 ~sub:( -. ) ~mul:( *. ) ~is_zero:(fun r -> r = 0.0) ~p rho m

(* dist.(mask) is the probability of each settled prefix of length [w.m] *)
let prefix_distribution (w : float W.weights) =
  let dist = ref [| 1.0 |] in
  for len = 0 to w.m - 1 do
    let cur = !dist and next = Array.make (2 lsl len) 0.0 in
    W.settle_round w len (fun src dst i -> next.(dst) <- next.(dst) +. (cur.(src) *. w.settle.(i)));
    dist := next
  done;
  !dist

let gamma_pmf ?(p = 0.5) model ~m =
  check ~p m;
  let w = weights ~p model m in
  let prefix = prefix_distribution w in
  let out = Array.make (m + 1) 0.0 in
  W.pair w (fun mask g a b -> out.(g) <- out.(g) +. (prefix.(mask) *. w.pair.(a) *. w.pair.(b)));
  List.init (m + 1) (fun g -> (g, out.(g)))

let bottom_st_probability ?(p = 0.5) model ~m =
  check ~p m;
  if m = 0 then invalid_arg "Exact_dp.bottom_st_probability: m >= 1 required";
  let prefix = prefix_distribution (weights ~p model m) in
  let acc = ref 0.0 in
  Array.iteri (fun mask mass -> if (mask lsr (m - 1)) land 1 = 1 then acc := !acc +. mass) prefix;
  !acc

let expect_pow2_window ?(p = 0.5) model ~m ~k =
  if k < 1 then invalid_arg "Exact_dp.expect_pow2_window: k >= 1 required";
  let pmf = gamma_pmf ~p model ~m in
  List.fold_left
    (fun acc (gamma, pr) -> acc +. (pr *. Float.pow 2.0 (float_of_int (-k * (gamma + 2)))))
    0.0 pmf
