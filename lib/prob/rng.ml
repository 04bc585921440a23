(* State layout: the four xoshiro256++ words live in an int64 Bigarray
   rather than mutable record fields. Mutable [int64] record fields are
   boxed — every store would allocate a fresh 3-word custom block, which
   made the generator the dominant allocation in the Monte Carlo hot loops.
   [Array1.unsafe_get]/[unsafe_set] on an int64 Bigarray compile to unboxed
   loads/stores, and with [bits64] marked [@inline] the intermediate words
   never materialize on the heap inside this module: [bool]/[int]/
   [bernoulli_scaled]/[geometric_half] allocate nothing at all. The output
   bit stream is unchanged — only the state representation moved.

   The inlining stops at this module's boundary. Dune's default (dev)
   profile compiles with [-opaque], so a call from another module is a real
   call: the four words are loaded and stored once per draw, and [bits64]
   returns a boxed [int64]. That is why the interface exposes [t] as a
   private Bigarray: the settling kernel ([Memrel_settling.Scratch]) keeps the
   words in locals across a whole trial and steps the generator inline,
   with [bits64] below as the reference its copies are tested against. *)

type t = (int64, Bigarray.int64_elt, Bigarray.c_layout) Bigarray.Array1.t

(* splitmix64: used only to expand a seed into the four xoshiro words, per
   the generator authors' recommendation. *)
let splitmix64_next st =
  let open Int64 in
  st := add !st 0x9E3779B97F4A7C15L;
  let z = !st in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* expand a splitmix state into the four xoshiro words *)
let of_splitmix st =
  let s0 = splitmix64_next st in
  let s1 = splitmix64_next st in
  let s2 = splitmix64_next st in
  let s3 = splitmix64_next st in
  let t = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout 4 in
  (* xoshiro must not start from the all-zero state; splitmix output is only
     all-zero with negligible probability, but guard anyway. *)
  Bigarray.Array1.set t 0 (if s0 = 0L && s1 = 0L && s2 = 0L && s3 = 0L then 1L else s0);
  Bigarray.Array1.set t 1 s1;
  Bigarray.Array1.set t 2 s2;
  Bigarray.Array1.set t 3 s3;
  t

let create seed = of_splitmix (ref (Int64.of_int seed))

let copy t =
  let u = Bigarray.Array1.create Bigarray.Int64 Bigarray.C_layout 4 in
  Bigarray.Array1.blit t u;
  u

let[@inline] rotl x k =
  Int64.logor (Int64.shift_left x k) (Int64.shift_right_logical x (64 - k))

(* xoshiro256++. The [(t : t)] annotation is load-bearing: without it the
   kind/layout parameters stay polymorphic and the Array1 primitives compile
   to the generic (boxing) bigarray access instead of unboxed int64
   loads/stores. *)
let[@inline] bits64 (t : t) =
  let open Int64 in
  let s0 = Bigarray.Array1.unsafe_get t 0 in
  let s1 = Bigarray.Array1.unsafe_get t 1 in
  let s2 = Bigarray.Array1.unsafe_get t 2 in
  let s3 = Bigarray.Array1.unsafe_get t 3 in
  let result = add (rotl (add s0 s3) 23) s0 in
  let tt = shift_left s1 17 in
  let s2 = logxor s2 s0 in
  let s3 = logxor s3 s1 in
  let s1 = logxor s1 s2 in
  let s0 = logxor s0 s3 in
  let s2 = logxor s2 tt in
  let s3 = rotl s3 45 in
  Bigarray.Array1.unsafe_set t 0 s0;
  Bigarray.Array1.unsafe_set t 1 s1;
  Bigarray.Array1.unsafe_set t 2 s2;
  Bigarray.Array1.unsafe_set t 3 s3;
  result

let split t = of_splitmix (ref (bits64 t))

let substream base i =
  (* hash the stream index through splitmix64 (a bijection on int64) before
     combining with the base entropy, so that consecutive indices land on
     unrelated splitmix states and the four seed words of stream i share
     nothing with those of stream i+1 *)
  let h = splitmix64_next (ref (Int64.of_int i)) in
  of_splitmix (ref (Int64.logxor base h))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  if bound land (bound - 1) = 0 then
    (* power of two: mask the low bits *)
    Int64.to_int (bits64 t) land (bound - 1)
  else begin
    (* rejection sampling on 62 usable bits to avoid modulo bias *)
    let mask = (1 lsl 62) - 1 in
    let limit = mask / bound * bound in
    let rec draw () =
      let v = Int64.to_int (bits64 t) land mask in
      if v < limit then v mod bound else draw ()
    in
    draw ()
  end

let[@inline] float t =
  (* top 53 bits scaled into [0,1) *)
  let v = Int64.to_int (Int64.shift_right_logical (bits64 t) 11) in
  float_of_int v *. 0x1.0p-53

let[@inline] bool t = Int64.to_int (bits64 t) land 1 = 1

let bernoulli t p = float t < p

(* [bernoulli t p] compares [v *. 2^-53 < p] with [v] the top 53 bits of one
   word. Both scalings by a power of two are exact, so the comparison over
   the reals is [v < p *. 2^53]; for the integer [v] that is exactly
   [v < ceil (p *. 2^53)]. Precomputing that integer threshold turns the
   Bernoulli draw into an immediate-int comparison: no boxed float crosses
   the call, and the verdict is bit-identical to [bernoulli]. *)
let scale_probability p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Rng.scale_probability: p out of [0,1]";
  int_of_float (Float.ceil (p *. 0x1.0p53))

let[@inline] bernoulli_scaled t threshold =
  Int64.to_int (Int64.shift_right_logical (bits64 t) 11) < threshold

let geometric_half t =
  (* Count heads before the first tail, consuming one 64-bit word at a time.
     Each word contributes its count of leading one-bits; a non-full run
     terminates the count. Exact (no float rounding) for all practical k.
     The bit counting runs on a native int (the low 63 bits): if those are
     all ones yet the word is not all-ones, bit 63 is the terminating zero
     and the count 63 is already correct. *)
  let acc = ref 0 in
  let stop = ref false in
  while not !stop do
    let w = bits64 t in
    if w = -1L then acc := !acc + 64
    else begin
      let wi = Int64.to_int w in
      let i = ref 0 in
      while !i < 63 && (wi lsr !i) land 1 = 1 do incr i done;
      acc := !acc + !i;
      stop := true
    end
  done;
  !acc

let geometric t p =
  if not (p > 0. && p <= 1.) then invalid_arg "Rng.geometric: p must be in (0,1]";
  if p = 1. then 0
  else if p = 0.5 then geometric_half t
  else begin
    let u = 1. -. float t (* in (0,1] *) in
    int_of_float (Float.floor (log u /. log (1. -. p)))
  end

let shuffle_in_place t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
