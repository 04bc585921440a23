module Model = Memrel_memmodel.Model
module Op = Memrel_memmodel.Op
module Rng = Memrel_prob.Rng

(* Op codes for generated programs (no fences): bit 0 is the access kind,
   bit 1 marks the critical pair. The settle loop then reads every swap
   probability out of a 16-entry threshold table indexed by
   [earlier_code * 4 + later_code] — one unsafe load per step instead of a
   match on the op variants, and the probability is already in
   {!Rng.scale_probability} form so no float is boxed per draw. *)
let code_plain_ld = 0
let code_plain_st = 1
let code_crit_ld = 2
let code_crit_st = 3

let kind_of_code c = if c land 1 = 1 then Op.ST else Op.LD

type t = {
  m : int;
  gap : int;
  n : int;  (* m + gap + 2 *)
  p_threshold : int;  (* ST probability of a plain op, pre-scaled *)
  thresholds : int array;  (* swap thresholds, earlier_code * 4 + later_code *)
  codes : int array;  (* the current program, length n *)
  order : int array;  (* order.(pos) = initial index of the op at pos *)
  mutable load_pos : int;  (* settled position of the critical load *)
  mutable store_pos : int;  (* settled position of the critical store *)
}

let identity ?(p = 0.5) ?(gap = 0) ~m model =
  let rho earlier later = Model.swap_probability model ~earlier ~later in
  Printf.sprintf "model=%s rho=%h,%h,%h,%h p=%h m=%d gap=%d" (Model.name model)
    (rho Op.ST Op.ST) (rho Op.ST Op.LD) (rho Op.LD Op.ST) (rho Op.LD Op.LD) p m gap

let create ?(p = 0.5) ?(gap = 0) ~m model =
  if m < 0 then invalid_arg "Scratch.create: m < 0";
  if gap < 0 then invalid_arg "Scratch.create: gap < 0";
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Scratch.create: p out of [0,1]";
  let n = m + gap + 2 in
  let thresholds = Array.make 16 0 in
  for e = 0 to 3 do
    for l = 0 to 3 do
      let prob =
        (* the critical pair is the only same-location pair: it never swaps *)
        if (e = code_crit_ld && l = code_crit_st) || (e = code_crit_st && l = code_crit_ld)
        then 0.0
        else
          Model.swap_probability model ~earlier:(kind_of_code e) ~later:(kind_of_code l)
      in
      thresholds.((e * 4) + l) <- Rng.scale_probability prob
    done
  done;
  {
    m;
    gap;
    n;
    p_threshold = Rng.scale_probability p;
    thresholds;
    codes = Array.make n 0;
    order = Array.make n 0;
    load_pos = 0;
    store_pos = 0;
  }

let generate t rng =
  (* same draw order as [Program.generate_with_gap]: one Bernoulli per plain
     position, ascending; ST on true *)
  let codes = t.codes in
  for i = 0 to t.m - 1 do
    Array.unsafe_set codes i
      (if Rng.bernoulli_scaled rng t.p_threshold then code_plain_st else code_plain_ld)
  done;
  codes.(t.m) <- code_crit_ld;
  for i = t.m + 1 to t.m + t.gap do
    Array.unsafe_set codes i
      (if Rng.bernoulli_scaled rng t.p_threshold then code_plain_st else code_plain_ld)
  done;
  codes.(t.m + t.gap + 1) <- code_crit_st

let settle t rng =
  (* [Settle.run] on the coded program: identical walk, identical draw
     sequence (a Bernoulli is drawn exactly when the swap probability is
     positive, i.e. the threshold is) *)
  let codes = t.codes and order = t.order and th = t.thresholds in
  let n = t.n in
  for i = 0 to n - 1 do
    Array.unsafe_set order i i
  done;
  for r = 1 to n - 1 do
    let settling = Array.unsafe_get codes r in
    let pos = ref r in
    let continue = ref true in
    while !continue && !pos > 0 do
      let above = Array.unsafe_get codes (Array.unsafe_get order (!pos - 1)) in
      let threshold = Array.unsafe_get th ((above * 4) + settling) in
      if threshold > 0 && Rng.bernoulli_scaled rng threshold then begin
        Array.unsafe_set order !pos (Array.unsafe_get order (!pos - 1));
        Array.unsafe_set order (!pos - 1) r;
        decr pos
      end
      else continue := false
    done
  done;
  (* locate the critical pair by initial index — one linear scan instead of
     materializing the inverse permutation *)
  let cl = t.m and cs = t.m + t.gap + 1 in
  for pos = 0 to n - 1 do
    let init = Array.unsafe_get order pos in
    if init = cl then t.load_pos <- pos else if init = cs then t.store_pos <- pos
  done

let load_pos t = t.load_pos
let store_pos t = t.store_pos
let gamma t = t.store_pos - t.load_pos - 1

let sample_gamma t rng =
  generate t rng;
  settle t rng;
  gamma t
