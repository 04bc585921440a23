(* Slot layout, 62 bits of a non-negative int; 0 marks an empty slot:

     bits 52..61  tag      10 hash bits above the index bits, filtering
                           almost every probe that is not a match
     bits 42..51  length   key length, or [len_escape] when the key is
                           longer and its length sits in the arena as a
                           4-byte prefix
     bits 20..41  chunk+1  arena chunk holding the key (never 0)
     bits  0..19  offset   key position in that chunk *)

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
  mutable slots : int array;
  mutable count : int;
  mutable chunks : Bytes.t array;
  mutable nchunks : int;
  mutable cur : int;  (* the chunk new short keys are appended to *)
  mutable fill : int;  (* bytes used in [cur] *)
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

let create ?(hash = hash_bytes) () =
  {
    hash;
    slots = Array.make 1024 0;
    count = 0;
    chunks = [| Bytes.create first_chunk_bytes |];
    nchunks = 1;
    cur = 0;
    fill = 0;
  }

let length t = t.count

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
  t.nchunks - 1

(* copy a key into the arena; returns its slot word. Short keys are
   appended to the current chunk; when it is full a new chunk is started
   (twice the last, up to [max_chunk_bytes], and at least the key's size),
   so growing never copies old keys. A longer key gets a chunk of its
   own. *)
let store t tag b len =
  let escaped = len >= len_escape in
  let need = if escaped then len + 4 else len in
  let chunk, off =
    if need > max_chunk_bytes then (add_chunk t need, 0)
    else begin
      let cur_size = Bytes.length t.chunks.(t.cur) in
      (* [max need 1]: even an empty key's offset must lie inside the
         chunk, or it would overflow the slot's offset field *)
      if t.fill + max need 1 > cur_size then begin
        t.cur <- add_chunk t (max need (min max_chunk_bytes (2 * cur_size)));
        t.fill <- 0
      end;
      let off = t.fill in
      t.fill <- off + need;
      (t.cur, off)
    end
  in
  let c = t.chunks.(chunk) in
  if escaped then Bytes.set_int32_le c off (Int32.of_int len);
  Bytes.blit b 0 c (if escaped then off + 4 else off) len;
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

let add t b len =
  let h = t.hash b 0 len in
  let i = find t h b len in
  if Array.unsafe_get t.slots i <> 0 then false
  else begin
    t.slots.(i) <- store t (tag_of h) b len;
    t.count <- t.count + 1;
    (* load factor at most 1/2 keeps linear-probe chains short *)
    if 2 * t.count > Array.length t.slots then grow t;
    true
  end
