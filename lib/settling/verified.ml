module Q = Memrel_prob.Rational
module C = Memrel_prob.Combinatorics

type enclosure = { lo : Q.t; hi : Q.t }

let make lo hi =
  if Q.compare lo hi > 0 then invalid_arg "Verified: crossed enclosure";
  { lo; hi }

let width e = Q.sub e.hi e.lo

let add a b = make (Q.add a.lo b.lo) (Q.add a.hi b.hi)
let scale q a = make (Q.mul q a.lo) (Q.mul q a.hi)
let point q = make q q

let third = Q.of_ints 1 3
let two_thirds = Q.of_ints 2 3

(* exact H(q, c) = sum over multisets of q parts in {1..c} of prod 2^-part *)
let hom_table : (int * int, Q.t) Hashtbl.t = Hashtbl.create 1024

let rec hom_sym q c =
  if q = 0 then Q.one
  else if c = 0 then Q.zero
  else begin
    match Hashtbl.find_opt hom_table (q, c) with
    | Some v -> v
    | None ->
      let v = Q.add (hom_sym q (c - 1)) (Q.mul (Q.pow2 (-c)) (hom_sym (q - 1) c)) in
      Hashtbl.add hom_table (q, c) v;
      v
  end

let binom_q n k = Q.of_bigint (C.binomial n k)

let psi ~mu ~q = Q.mul (binom_q (mu + q - 1) q) (Q.pow2 (-(mu + q)))

let f_exact ~mu ~q =
  if q = 0 then Q.one else Q.div (hom_sym q mu) (binom_q (mu + q - 1) q)

let l_mu_table : (int * int, enclosure) Hashtbl.t = Hashtbl.create 256

let rec l_mu ?(q_max = 60) mu =
  if mu < 0 then invalid_arg "Verified.l_mu: mu < 0";
  if mu = 0 then point third
  else begin
    match Hashtbl.find_opt l_mu_table (mu, q_max) with
    | Some e -> e
    | None ->
      let e = l_mu_raw ~q_max mu in
      Hashtbl.add l_mu_table (mu, q_max) e;
      e
  end

and l_mu_raw ~q_max mu =
  begin
    (* The partial sum is an exact rational. A dropped term (q > q_max) is
       at most psi(q) * 2^-q: each of the q interspersed LDs has at least
       one ST above it, so Delta >= q and Pr[F | q] = E[2^-Delta] <= 2^-q,
       while the bottom factor is <= 1. Summing psi(q) 2^-q over ALL q has
       the negative-binomial closed form
         sum_q C(mu+q-1, q) 2^-(mu+q) 2^-q = 2^-mu (1 - 1/4)^-mu = (2/3)^mu,
       so the dropped mass is exactly (2/3)^mu minus the tracked partial —
       an exact rational tail bound that stays tiny even when q_max cuts
       into the bulk of Psi for large mu. *)
    let s = ref Q.zero and weighted_mass = ref Q.zero in
    for q = 0 to q_max do
      let p = psi ~mu ~q in
      weighted_mass := Q.add !weighted_mass (Q.mul p (Q.pow2 (-q)));
      let term =
        Q.mul p (Q.mul (f_exact ~mu ~q) (Q.sub Q.one (Q.mul two_thirds (Q.pow2 (-q)))))
      in
      s := Q.add !s term
    done;
    let tail = Q.max Q.zero (Q.sub (Q.pow (Q.of_ints 2 3) mu) !weighted_mass) in
    make !s (Q.add !s tail)
  end

let b_tso ?(q_max = 60) ?(mu_max = 60) gamma =
  if gamma < 0 then invalid_arg "Verified.b_tso: gamma < 0";
  (* Pr[B_gamma] = 2^-gamma Pr[L_gamma]
                 + 2^-(gamma+1) sum_{mu > gamma} Pr[L_mu].
     The mu-tail mass is 1 - sum_{mu <= mu_max} Pr[L_mu] (the L_mu events
     partition), each tail term contributing at most 2^-(gamma+1) times its
     mass. For gamma = 0 the head coefficient is 1 (the critical LD stops
     against a LD with certainty). *)
  let enc = Array.init (mu_max + 1) (fun mu -> l_mu ~q_max mu) in
  let head = scale (Q.pow2 (-gamma)) enc.(gamma) in
  let mid = ref (point Q.zero) in
  for mu = gamma + 1 to mu_max do
    mid := add !mid (scale (Q.pow2 (-(gamma + 1))) enc.(mu))
  done;
  let covered = Array.fold_left (fun acc e -> Q.add acc e.lo) Q.zero enc in
  let tail_mass = Q.max Q.zero (Q.sub Q.one covered) in
  let tail = make Q.zero (Q.mul (Q.pow2 (-(gamma + 1))) tail_mass) in
  add (add head !mid) tail

let pr_a_tso_n2 ?(q_max = 60) ?(mu_max = 60) ?(gamma_max = 60) () =
  (* Pr[A] = (2/3) sum_gamma Pr[B_gamma] 2^-(gamma+2); the gamma-tail mass
     is 1 - sum of the B lower bounds, each tail term weighted by at most
     2^-(gamma_max+3) *)
  let s = ref (point Q.zero) and b_mass_lo = ref Q.zero in
  for gamma = 0 to gamma_max do
    let b = b_tso ~q_max ~mu_max gamma in
    b_mass_lo := Q.add !b_mass_lo b.lo;
    s := add !s (scale (Q.pow2 (-(gamma + 2))) b)
  done;
  let tail_mass = Q.max Q.zero (Q.sub Q.one !b_mass_lo) in
  let tail = make Q.zero (Q.mul (Q.pow2 (-(gamma_max + 3))) tail_mass) in
  scale two_thirds (add !s tail)
