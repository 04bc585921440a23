module Model = Memrel_memmodel.Model
module Op = Memrel_memmodel.Op
module Rng = Memrel_prob.Rng

(* Op codes for generated programs (no fences): bit 0 is the access kind
   (ST = 1), bit 1 marks the critical pair, so a plain op's code is its ST
   verdict itself: plain LD 0, plain ST 1. The settle loop then reads every swap
   probability out of a 16-entry threshold table indexed by
   [earlier_code * 4 + later_code] — one unsafe load per step instead of a
   match on the op variants, and the probability is already in
   {!Rng.scale_probability} form so no float is boxed per draw. *)
let code_crit_ld = 2
let code_crit_st = 3

let kind_of_code c = if c land 1 = 1 then Op.ST else Op.LD

type t = {
  m : int;
  gap : int;
  n : int;  (* m + gap + 2 *)
  p_threshold : int;  (* ST probability of a plain op, pre-scaled *)
  thresholds : int array;  (* swap thresholds, earlier_code * 4 + later_code *)
  codes : int array;  (* the current program in initial order, length n *)
  settled : int array;  (* [settle]'s working copy, codes in settled order *)
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
    settled = Array.make n 0;
    load_pos = 0;
    store_pos = 0;
  }

(* The generator is fused into both loops below: each reads the four
   xoshiro256++ words of [rng] into local [int64] refs once, steps them
   inline, and stores them back once on exit. The step is written out
   textually in each loop, word for word [Rng.bits64]; the draw's verdict
   [top53 < threshold] is [Rng.bernoulli_scaled]'s. Local refs that never
   escape stay unboxed (in registers or stack slots), whereas a helper
   closure over them would box every word, and a call into [Rng] reloads
   them per draw. Each copy is pinned draw-for-draw, including the
   generator position it leaves behind, by the differential grid in the
   test suite. *)
type words = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

let generate t rng =
  (* same draw order as [Program.generate_with_gap]: one Bernoulli per plain
     position, ascending; ST on true. Draw [j] fills position [j] of the
     prefix, or [j + 1] past the critical load, with the verdict
     itself as the code — no branch in the loop. *)
  let w = (rng : Rng.t :> words) in
  let s0 = ref (Bigarray.Array1.unsafe_get w 0) in
  let s1 = ref (Bigarray.Array1.unsafe_get w 1) in
  let s2 = ref (Bigarray.Array1.unsafe_get w 2) in
  let s3 = ref (Bigarray.Array1.unsafe_get w 3) in
  let codes = t.codes and m = t.m and threshold = t.p_threshold in
  for j = 0 to m + t.gap - 1 do
    let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
    let word = Int64.add (rotl (Int64.add a0 a3) 23) a0 in
    let a2 = Int64.logxor a2 a0 and a3 = Int64.logxor a3 a1 in
    s0 := Int64.logxor a0 a3;
    s1 := Int64.logxor a1 a2;
    s2 := Int64.logxor a2 (Int64.shift_left a1 17);
    s3 := rotl a3 45;
    let top53 = Int64.to_int (Int64.shift_right_logical word 11) in
    Array.unsafe_set codes (j + Bool.to_int (j >= m)) (Bool.to_int (top53 < threshold))
  done;
  codes.(m) <- code_crit_ld;
  codes.(t.n - 1) <- code_crit_st;
  Bigarray.Array1.unsafe_set w 0 !s0;
  Bigarray.Array1.unsafe_set w 1 !s1;
  Bigarray.Array1.unsafe_set w 2 !s2;
  Bigarray.Array1.unsafe_set w 3 !s3

let settle t rng =
  (* [Settle.run] on the coded program: identical walk, identical draw
     sequence (a Bernoulli is drawn exactly when the swap probability is
     positive, i.e. the threshold is). [settled] holds the codes in settled
     order, so each comparison is one load; round [r] reads only positions
     [0 .. r-1], which earlier rounds wrote, so [codes] stays intact for
     the next [settle] of the same program. *)
  let w = (rng : Rng.t :> words) in
  let s0 = ref (Bigarray.Array1.unsafe_get w 0) in
  let s1 = ref (Bigarray.Array1.unsafe_get w 1) in
  let s2 = ref (Bigarray.Array1.unsafe_get w 2) in
  let s3 = ref (Bigarray.Array1.unsafe_get w 3) in
  let codes = t.codes and settled = t.settled and th = t.thresholds in
  let cl = t.m and cs = t.m + t.gap + 1 in
  (* The critical positions are tracked as rounds pass them: round [r]
     moves op [r] up to [pos] and shifts positions [pos .. r-1] down by
     one, so a tracked position [>= pos] grows by one. A position is exact
     from its op's own round on: round [cl] sets [lp] and round [cs] sets
     [sp], overwriting whatever earlier rounds did to the placeholder.
     [lp] starts at [cl] because the load has no round when [cl = 0]. *)
  let lp = ref cl and sp = ref cs in
  Array.unsafe_set settled 0 (Array.unsafe_get codes 0);
  for r = 1 to t.n - 1 do
    let settling = Array.unsafe_get codes r in
    let pos = ref r in
    let above = ref (Array.unsafe_get settled (r - 1)) in
    let threshold = ref (Array.unsafe_get th ((!above * 4) + settling)) in
    while !threshold > 0 do
      let a0 = !s0 and a1 = !s1 and a2 = !s2 and a3 = !s3 in
      let word = Int64.add (rotl (Int64.add a0 a3) 23) a0 in
      let a2 = Int64.logxor a2 a0 and a3 = Int64.logxor a3 a1 in
      s0 := Int64.logxor a0 a3;
      s1 := Int64.logxor a1 a2;
      s2 := Int64.logxor a2 (Int64.shift_left a1 17);
      s3 := rotl a3 45;
      if Int64.to_int (Int64.shift_right_logical word 11) < !threshold then begin
        Array.unsafe_set settled !pos !above;
        decr pos;
        if !pos > 0 then begin
          above := Array.unsafe_get settled (!pos - 1);
          threshold := Array.unsafe_get th ((!above * 4) + settling)
        end
        else threshold := 0
      end
      else threshold := 0
    done;
    let pos = !pos in
    Array.unsafe_set settled pos settling;
    if r = cl then lp := pos
    else if r = cs then sp := pos
    else begin
      lp := !lp + Bool.to_int (pos <= !lp);
      sp := !sp + Bool.to_int (pos <= !sp)
    end
  done;
  t.load_pos <- !lp;
  t.store_pos <- !sp;
  Bigarray.Array1.unsafe_set w 0 !s0;
  Bigarray.Array1.unsafe_set w 1 !s1;
  Bigarray.Array1.unsafe_set w 2 !s2;
  Bigarray.Array1.unsafe_set w 3 !s3

let load_pos t = t.load_pos
let store_pos t = t.store_pos
let gamma t = t.store_pos - t.load_pos - 1

let sample_gamma t rng =
  generate t rng;
  settle t rng;
  gamma t
