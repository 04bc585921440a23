(* Slot layout, 62 bits of a non-negative int; 0 marks an empty slot:

     bits 52..61  tag      10 hash bits above the index bits, filtering
                           almost every probe that is not a match
     bits 42..51  length   key length, or [len_escape] when the key is
                           longer and its length sits in the arena as a
                           4-byte prefix
     bits 20..41  chunk+1  arena chunk holding the key (never 0)
     bits  0..19  offset   key position in that chunk

   A set made with [value_bytes] > 0 stores that many bytes of value
   right after each key's bytes, little-endian. *)

let off_bits = 20
let chunk_bits = 22
let len_shift = off_bits + chunk_bits
let len_bits = 10
let tag_shift = len_shift + len_bits
let tag_mask = (1 lsl 10) - 1
let len_escape = (1 lsl len_bits) - 1
let max_chunk_bytes = 1 lsl off_bits
let first_chunk_bytes = 4096

type t = {
  hash : Bytes.t -> int -> int -> int;
  value_bytes : int;
  mutable slots : int array;
  mutable count : int;
  mutable chunks : Bytes.t array;
  mutable nchunks : int;
  mutable cur : int;  (* the chunk new short keys are appended to *)
  mutable fill : int;  (* bytes used in [cur] *)
  mutable chunk_bytes : int;  (* total size of the allocated chunks *)
}

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

let prime = 0x27D4EB2F165667C5

(* word-at-a-time multiply/xor-shift hash; an int's 63 bits keep the low 63
   of each 8-byte word, which is plenty for an in-process index *)
let hash_bytes b off len =
  let h = ref (len * prime) and i = ref off and stop = off + len in
  while !i + 8 <= stop do
    let x = (!h lxor Int64.to_int (get64 b !i)) * prime in
    h := x lxor (x lsr 31);
    i := !i + 8
  done;
  while !i < stop do
    h := (!h lxor Char.code (Bytes.unsafe_get b !i)) * prime;
    incr i
  done;
  let x = (!h lxor (!h lsr 29)) * prime in
  (x lxor (x lsr 32)) land max_int

let initial_slots = 1024

let create ?(hash = hash_bytes) ?(value_bytes = 0) () =
  if value_bytes < 0 || value_bytes > 8 then invalid_arg "Arena_set.create: value_bytes";
  {
    hash;
    value_bytes;
    slots = Array.make initial_slots 0;
    count = 0;
    chunks = [| Bytes.create first_chunk_bytes |];
    nchunks = 1;
    cur = 0;
    fill = 0;
    chunk_bytes = first_chunk_bytes;
  }

let length t = t.count
let footprint t = t.chunk_bytes + (8 * Array.length t.slots)

let tag_of h = (h lsr 40) land tag_mask

let chunk_of t s = Array.unsafe_get t.chunks (((s lsr off_bits) land ((1 lsl chunk_bits) - 1)) - 1)
let escaped s = (s lsr len_shift) land len_escape = len_escape

(* where slot [s]'s key bytes start, and how many there are *)
let key_off s =
  let off = s land (max_chunk_bytes - 1) in
  if escaped s then off + 4 else off

let key_len t s =
  if escaped s then
    Int32.to_int (Bytes.get_int32_le (chunk_of t s) (s land (max_chunk_bytes - 1)))
  else (s lsr len_shift) land len_escape

let equal_at c coff b len =
  let i = ref 0 in
  while !i + 8 <= len && get64 c (coff + !i) = get64 b !i do
    i := !i + 8
  done;
  if !i + 8 <= len then false
  else begin
    while !i < len && Bytes.unsafe_get c (coff + !i) = Bytes.unsafe_get b !i do
      incr i
    done;
    !i = len
  end

let matches t s tag b len =
  s lsr tag_shift = tag
  && key_len t s = len
  && equal_at (chunk_of t s) (key_off s) b len

(* the slot of [b]'s key, or of the empty slot where it belongs *)
let find t h b len =
  let tag = tag_of h and mask = Array.length t.slots - 1 in
  let i = ref (h land mask) in
  while
    let s = Array.unsafe_get t.slots !i in
    s <> 0 && not (matches t s tag b len)
  do
    i := (!i + 1) land mask
  done;
  !i

let add_chunk t size =
  if t.nchunks = Array.length t.chunks then begin
    let a = Array.make (2 * t.nchunks) Bytes.empty in
    Array.blit t.chunks 0 a 0 t.nchunks;
    t.chunks <- a
  end;
  if t.nchunks >= (1 lsl chunk_bits) - 1 then failwith "Arena_set: arena full";
  t.chunks.(t.nchunks) <- Bytes.create size;
  t.nchunks <- t.nchunks + 1;
  t.chunk_bytes <- t.chunk_bytes + size;
  t.nchunks - 1

(* the value stored after slot [s]'s key, and [v] ANDed into it *)
let value t s =
  let c = chunk_of t s and p = key_off s + key_len t s and v = ref 0 in
  for j = t.value_bytes - 1 downto 0 do
    v := (!v lsl 8) lor Char.code (Bytes.unsafe_get c (p + j))
  done;
  !v

let and_value t s v =
  let c = chunk_of t s and p = key_off s + key_len t s in
  for j = 0 to t.value_bytes - 1 do
    let old = Char.code (Bytes.unsafe_get c (p + j)) in
    Bytes.unsafe_set c (p + j) (Char.unsafe_chr (old land (v lsr (8 * j))))
  done

(* copy a key and its value into the arena; returns its slot word. Short
   keys are appended to the current chunk; when it is full a new chunk is
   started (twice the last, up to [max_chunk_bytes], and at least the
   key's size), so growing never copies old keys. A longer key gets a
   chunk of its own. *)
let store t tag b len v =
  let escaped = len >= len_escape in
  let need = (if escaped then len + 4 else len) + t.value_bytes in
  let chunk, off =
    if need > max_chunk_bytes then (add_chunk t need, 0)
    else begin
      let cur_size = Bytes.length t.chunks.(t.cur) in
      (* [max need 1]: even an empty key's offset must lie inside the
         chunk, or it would overflow the slot's offset field *)
      if t.fill + Int.max need 1 > cur_size then begin
        t.cur <- add_chunk t (Int.max need (Int.min max_chunk_bytes (2 * cur_size)));
        t.fill <- 0
      end;
      let off = t.fill in
      t.fill <- off + need;
      (t.cur, off)
    end
  in
  let c = t.chunks.(chunk) in
  if escaped then Bytes.set_int32_le c off (Int32.of_int len);
  let koff = if escaped then off + 4 else off in
  Bytes.blit b 0 c koff len;
  for j = 0 to t.value_bytes - 1 do
    Bytes.unsafe_set c (koff + len + j) (Char.unsafe_chr ((v lsr (8 * j)) land 0xff))
  done;
  (tag lsl tag_shift)
  lor ((if escaped then len_escape else len) lsl len_shift)
  lor ((chunk + 1) lsl off_bits)
  lor off

let grow t =
  let old = t.slots in
  t.slots <- Array.make (2 * Array.length old) 0;
  let mask = Array.length t.slots - 1 in
  Array.iter
    (fun s ->
      if s <> 0 then begin
        let h = t.hash (chunk_of t s) (key_off s) (key_len t s) in
        let i = ref (h land mask) in
        while Array.unsafe_get t.slots !i <> 0 do
          i := (!i + 1) land mask
        done;
        t.slots.(!i) <- s
      end)
    old

let add_value t b len v =
  let h = t.hash b 0 len in
  let i = find t h b len in
  let s = Array.unsafe_get t.slots i in
  if s <> 0 then begin
    if t.value_bytes > 0 then and_value t s v;
    false
  end
  else begin
    t.slots.(i) <- store t (tag_of h) b len v;
    t.count <- t.count + 1;
    (* load factor at most 1/2 keeps linear-probe chains short *)
    if 2 * t.count > Array.length t.slots then grow t;
    true
  end

let add t b len = add_value t b len 0

(* -- sorting --------------------------------------------------------------
   [iter] sorts the slot words themselves, in one [int array] of one word
   per key, by multikey quicksort (Bentley and Sedgewick's three-way radix
   quicksort) over 7-byte digits: partition on the digit at depth [d] into
   keys below, at and above the pivot's digit; the middle part moves on
   to depth [d + 7]. A parallel [int array] caches each key's digit at
   its range's depth, so a digit is computed once per key and depth, not
   once per partition pass; only a middle part, which moves to [d + 7],
   is refreshed. Keys are distinct, so the order is total and equals
   [String.compare]'s. *)

external swap64 : int64 -> int64 = "%bswap_int64"

let digit_bytes = 7

(* the digit of a key with [n] bytes left at [o] in [c]: those bytes,
   the first 7 of them big-endian and zero-padded, above how many there
   are (at most 7). Digits order as the bytes do, and a key that ends
   inside the window sorts before every key it is a prefix of. *)
let digit_at c o n =
  if n >= digit_bytes && o + 8 <= Bytes.length c then
    (Int64.to_int (Int64.shift_right_logical (swap64 (get64 c o)) 8) lsl 3) lor digit_bytes
  else begin
    let w = ref 0 in
    for i = 0 to digit_bytes - 1 do
      w := (!w lsl 8) lor if i < n then Char.code (Bytes.unsafe_get c (o + i)) else 0
    done;
    (!w lsl 3) lor if n <= 0 then 0 else if n >= digit_bytes then digit_bytes else n
  end

(* the digits at depth [d] of the keys [a.(lo) .. a.(hi - 1)], into [dig] *)
let load_digits t a dig lo hi d =
  for i = lo to hi - 1 do
    let s = Array.unsafe_get a i in
    Array.unsafe_set dig i (digit_at (chunk_of t s) (key_off s + d) (key_len t s - d))
  done

(* byte order of two slots' keys that agree on their first [d] bytes *)
let compare_from t d a b =
  let ca = chunk_of t a and oa = key_off a and la = key_len t a in
  let cb = chunk_of t b and ob = key_off b and lb = key_len t b in
  let n = Int.min la lb and i = ref d in
  while !i < n && Bytes.unsafe_get ca (oa + !i) = Bytes.unsafe_get cb (ob + !i) do
    incr i
  done;
  if !i < n then Char.compare (Bytes.unsafe_get ca (oa + !i)) (Bytes.unsafe_get cb (ob + !i))
  else Int.compare la lb

(* the annotations make the array accesses and digit comparisons below
   plain loads, stores and int compares *)
let swap (a : int array) (dig : int array) i j =
  let x = Array.unsafe_get a i in
  Array.unsafe_set a i (Array.unsafe_get a j);
  Array.unsafe_set a j x;
  let x = Array.unsafe_get dig i in
  Array.unsafe_set dig i (Array.unsafe_get dig j);
  Array.unsafe_set dig j x

(* insertion sort of [a.(lo) .. a.(hi - 1)], keys agreeing on [d] bytes
   with their digits at [d] in [dig]; equal digits agree on 7 more *)
let insertion_sort t (a : int array) (dig : int array) lo hi d =
  for i = lo + 1 to hi - 1 do
    let s = Array.unsafe_get a i and c = Array.unsafe_get dig i and j = ref i in
    while
      !j > lo
      &&
      let c' = Array.unsafe_get dig (!j - 1) in
      c' > c || (c' = c && compare_from t (d + digit_bytes) (Array.unsafe_get a (!j - 1)) s > 0)
    do
      Array.unsafe_set a !j (Array.unsafe_get a (!j - 1));
      Array.unsafe_set dig !j (Array.unsafe_get dig (!j - 1));
      decr j
    done;
    Array.unsafe_set a !j s;
    Array.unsafe_set dig !j c
  done

(* sorts [a.(lo) .. a.(hi - 1)], keys agreeing on their first [d] bytes,
   whose digits at [d] are in [dig]. It recurses into the two smaller
   parts and loops on the largest, so the recursion is at most log2 n
   deep whatever the keys. *)
let rec multikey_sort t a dig lo hi d =
  let lo = ref lo and hi = ref hi and d = ref d in
  while !hi - !lo > 12 do
    swap a dig !lo ((!lo + !hi) / 2);
    let pivot = Array.unsafe_get dig !lo in
    (* [lo, lt) below the pivot, [lt, i) at it, [gt, hi) above *)
    let lt = ref !lo and i = ref (!lo + 1) and gt = ref !hi in
    while !i < !gt do
      let c = Array.unsafe_get dig !i in
      if c < pivot then begin
        swap a dig !lt !i;
        incr lt;
        incr i
      end
      else if c > pivot then begin
        decr gt;
        swap a dig !i !gt
      end
      else incr i
    done;
    (* when the pivot's key ends inside its digit the middle part is that
       one key, which the next round leaves to the insertion sort *)
    let below = !lt - !lo and at = !gt - !lt and above = !hi - !gt in
    let next_d = !d + digit_bytes in
    load_digits t a dig !lt !gt next_d;
    if below >= at && below >= above then begin
      multikey_sort t a dig !lt !gt next_d;
      multikey_sort t a dig !gt !hi !d;
      hi := !lt
    end
    else if at >= above then begin
      multikey_sort t a dig !lo !lt !d;
      multikey_sort t a dig !gt !hi !d;
      lo := !lt;
      hi := !gt;
      d := next_d
    end
    else begin
      multikey_sort t a dig !lo !lt !d;
      multikey_sort t a dig !lt !gt next_d;
      lo := !gt
    end
  done;
  insertion_sort t a dig !lo !hi !d

let iter t f =
  let keys = Array.make t.count 0 and n = ref 0 in
  for i = 0 to Array.length t.slots - 1 do
    let s = Array.unsafe_get t.slots i in
    if s <> 0 then begin
      Array.unsafe_set keys !n s;
      incr n
    end
  done;
  let dig = Array.make t.count 0 in
  load_digits t keys dig 0 t.count 0;
  multikey_sort t keys dig 0 t.count 0;
  Array.iter (fun s -> f (chunk_of t s) (key_off s) (key_len t s) (value t s)) keys

(* back to a fresh set's shape, keeping only the first chunk *)
let clear t =
  if Array.length t.slots = initial_slots then Array.fill t.slots 0 initial_slots 0
  else t.slots <- Array.make initial_slots 0;
  Array.fill t.chunks 1 (t.nchunks - 1) Bytes.empty;
  t.count <- 0;
  t.nchunks <- 1;
  t.cur <- 0;
  t.fill <- 0;
  t.chunk_bytes <- Bytes.length t.chunks.(0)
