type thread = {
  prog : Instr.t array;
  executed : int;
  regs : int array;
  fifo : (int * int) list;
  perloc : int list array;
}

type t = { mem : int array; threads : thread array }

let max_prog_len = 60

(* the arrays are dense, indexed by the register or location number, so
   numbers are capped: a sparse numbering costs memory linear in its top *)
let max_index = 1 lsl 16

(* -- layout -------------------------------------------------------------
   The array lengths of every state in one state space: memory and the
   PSO buffers cover the locations the programs access plus the initially
   bound ones; each thread's registers cover the registers its program
   names. Computed once (by [init], or by [decoder] from an existing
   state) and shared by every state built from it. *)

type layout = {
  progs : Instr.t array array;
  mem_len : int;
  reg_lens : int array;
  store_masks : int array;  (* per thread: the bitmask of its store instructions *)
}

let extent what xs =
  List.fold_left
    (fun n x ->
      if x < 0 || x >= max_index then
        invalid_arg (Printf.sprintf "State: %s %d outside [0, %d)" what x max_index);
      max n (x + 1))
    0 xs

let prog_locs prog = List.filter_map Instr.loc_accessed (Array.to_list prog)

let prog_regs prog =
  Array.fold_left
    (fun acc ins ->
      let acc = List.rev_append (Instr.reads_regs ins) acc in
      match Instr.writes_reg ins with Some r -> r :: acc | None -> acc)
    [] prog

let store_mask prog =
  let m = ref 0 in
  Array.iteri (fun i ins -> match ins with Instr.Store _ -> m := !m lor (1 lsl i) | _ -> ()) prog;
  !m

let layout_of progs ~locs =
  { progs;
    mem_len = extent "location" (List.concat (locs :: List.map prog_locs (Array.to_list progs)));
    reg_lens = Array.map (fun prog -> extent "register" (prog_regs prog)) progs;
    store_masks = Array.map store_mask progs }

(* the all-zero state of a layout; its arrays are shared by every state
   that keeps a section all-zero (states are copy-on-write) *)
let empty_of layout =
  let perloc = Array.make layout.mem_len [] in
  { mem = Array.make layout.mem_len 0;
    threads =
      Array.mapi
        (fun k prog ->
          { prog; executed = 0; regs = Array.make layout.reg_lens.(k) 0; fifo = []; perloc })
        layout.progs }

let init ~programs ~initial_mem =
  if List.exists (fun prog -> Array.length prog > max_prog_len) programs then
    invalid_arg "State.init: program too long";
  let st = empty_of (layout_of (Array.of_list programs) ~locs:(List.map fst initial_mem)) in
  List.iter (fun (loc, v) -> st.mem.(loc) <- v) initial_mem;
  st

let get a i = if i >= 0 && i < Array.length a then Array.unsafe_get a i else 0

let reg th r = get th.regs r
let mem_read st loc = get st.mem loc

let with_index what a i v =
  if i < 0 || i >= Array.length a then invalid_arg ("State: " ^ what ^ " outside the layout");
  let a = Array.copy a in
  Array.unsafe_set a i v;
  a

let set_reg th r v = { th with regs = with_index "register" th.regs r v }
let set_mem st loc v = { st with mem = with_index "location" st.mem loc v }

let set_thread st k th =
  let threads = Array.copy st.threads in
  threads.(k) <- th;
  { st with threads }

let perloc_queue th loc = if loc >= 0 && loc < Array.length th.perloc then th.perloc.(loc) else []
let set_perloc_queue th loc q = { th with perloc = with_index "location" th.perloc loc q }

let is_executed th i = th.executed land (1 lsl i) <> 0

let next_unexecuted th =
  let n = Array.length th.prog in
  let rec go i = if i >= n || not (is_executed th i) then i else go (i + 1) in
  go 0

let perloc_empty th = Array.for_all (fun q -> q = []) th.perloc

let buffers_empty th = th.fifo = [] && perloc_empty th

let thread_done th = th.executed = (1 lsl Array.length th.prog) - 1 && buffers_empty th

let all_done st = Array.for_all thread_done st.threads

let buffered_read_fifo th loc =
  (* newest = last matching entry *)
  List.fold_left (fun acc (l, v) -> if l = loc then Some v else acc) None th.fifo

let buffered_read_perloc th loc =
  match perloc_queue th loc with [] -> None | q -> Some (List.nth q (List.length q - 1))

(* -- packing ------------------------------------------------------------
   zigzag + base-128 varints, count-prefixed sections, zero-valued
   bindings skipped: an injective, canonical encoding. The packer writes
   into a caller-owned scratch [Bytes] with plain loops, so packing a
   state allocates nothing once the scratch has grown to the key size.
   As it writes it records where each section ends: [ends.(0)] the end of
   memory, [ends.(k + 1)] the end of thread [k]. *)

type packer = { mutable bytes : Bytes.t; mutable len : int; mutable ends : int array }

let packer () = { bytes = Bytes.create 128; len = 0; ends = [||] }
let packed_bytes p = p.bytes
let packed_length p = p.len
let packed_string p = Bytes.sub_string p.bytes 0 p.len
let packed_ends p = p.ends

(* the ends array for a state of [n] threads (sized once per state space) *)
let ends_for p n =
  if Array.length p.ends <> n + 1 then p.ends <- Array.make (n + 1) 0;
  p.ends

(* room for [n] more bytes *)
let reserve p n =
  if p.len + n > Bytes.length p.bytes then begin
    let b = Bytes.create (Int.max (p.len + n) (2 * Bytes.length p.bytes)) in
    Bytes.blit p.bytes 0 b 0 p.len;
    p.bytes <- b
  end

let put_varint p n =
  (* a 63-bit varint takes at most 9 bytes *)
  if p.len + 10 > Bytes.length p.bytes then reserve p 10;
  let b = p.bytes in
  let u = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) and pos = ref p.len in
  while !u land lnot 0x7f <> 0 do
    Bytes.unsafe_set b !pos (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
    u := !u lsr 7;
    incr pos
  done;
  Bytes.unsafe_set b !pos (Char.unsafe_chr !u);
  p.len <- !pos + 1

let put_bindings p a =
  let n = ref 0 in
  for i = 0 to Array.length a - 1 do
    if Array.unsafe_get a i <> 0 then incr n
  done;
  put_varint p !n;
  for i = 0 to Array.length a - 1 do
    let v = Array.unsafe_get a i in
    if v <> 0 then begin
      put_varint p i;
      put_varint p v
    end
  done

let rec put_fifo p = function
  | [] -> ()
  | (l, v) :: rest ->
    put_varint p l;
    put_varint p v;
    put_fifo p rest

let rec put_list p = function
  | [] -> ()
  | v :: rest ->
    put_varint p v;
    put_list p rest

let put_perloc p q =
  let n = ref 0 in
  for i = 0 to Array.length q - 1 do
    if Array.unsafe_get q i <> [] then incr n
  done;
  put_varint p !n;
  for i = 0 to Array.length q - 1 do
    match Array.unsafe_get q i with
    | [] -> ()
    | l ->
      put_varint p i;
      put_varint p (List.length l);
      put_list p l
  done

(* inlined: [pack] is the in-RAM enumerator's hot path *)
let[@inline] put_thread p th =
  put_varint p th.executed;
  put_bindings p th.regs;
  put_varint p (List.length th.fifo);
  put_fifo p th.fifo;
  put_perloc p th.perloc

let pack p st =
  let n = Array.length st.threads in
  let ends = ends_for p n in
  p.len <- 0;
  put_bindings p st.mem;
  Array.unsafe_set ends 0 p.len;
  for k = 0 to n - 1 do
    put_thread p (Array.unsafe_get st.threads k);
    Array.unsafe_set ends (k + 1) p.len
  done

let add_packed buf st =
  let p = packer () in
  pack p st;
  Buffer.add_subbytes buf p.bytes 0 p.len

let packed_key st =
  let p = packer () in
  pack p st;
  packed_string p

(* -- packed-key decoding ------------------------------------------------
   The inverse of [pack]: the external-memory enumerator stores only
   packed keys on disk and must rebuild full states to expand them. The
   programs are not part of the key (they are invariant over a state
   space); the decoder carries them with the array layout, both computed
   once. A key binding a location or register past that layout (one the
   programs never touch, e.g. an initial-memory cell) widens the layout
   to cover it.

   Decoding is strict: it accepts exactly the keys [pack] writes, so
   [pack (decode k) = k] byte for byte, and the section ends it records
   are the ones [pack] records. That is what lets [pack_successor] copy a
   parent's key bytes for the sections a transition left alone.

   The decoder is a cursor over the key's bytes. While it reads it also
   records where each section ends and sums the depth (see
   [decoded_depth]), so neither needs a second pass over the state, and
   a key that shares a prefix with the last one reuses the sections, and
   their depths, that end inside it. *)

type decoder = {
  mutable layout : layout;
  mutable zero : t;  (* the all-zero state of [layout] *)
  buffered : bool;
  mutable src : Bytes.t;  (* the key being decoded, or last decoded *)
  mutable pos : int;
  mutable stop : int;
  mutable depth : int;
  mutable queued : int;  (* buffered entries read so far in the current thread *)
  marks : int array;
      (* section ends in [src], as a packer records them: [marks.(0)] the
         end of memory, [marks.(k + 1)] the end of thread [k] *)
  sums : int array;  (* [sums.(j)]: the depth of the sections up to [marks.(j)] *)
  mutable last : t;  (* the state decoded from [src] *)
  mutable valid : bool;  (* [last] and [marks] describe [src] *)
}

let make_decoder ~buffered layout =
  let zero = empty_of layout in
  let sections = Array.length layout.progs + 1 in
  { layout; zero; buffered; src = Bytes.empty; pos = 0; stop = 0; depth = 0; queued = 0;
    marks = Array.make sections 0; sums = Array.make sections 0; last = zero; valid = false }

let decoder ?(buffered = false) st =
  let progs = Array.map (fun th -> th.prog) st.threads in
  make_decoder ~buffered
    { progs;
      mem_len = Array.length st.mem;
      reg_lens = Array.map (fun th -> Array.length th.regs) st.threads;
      store_masks = Array.map store_mask progs }

let malformed () = invalid_arg "State.decode: malformed key"

(* a binding past the decoder's layout *)
exception Outside of int

(* the unsigned value of a varint whose first byte (at [p - 1]) had its
   continuation bit set; [u] holds the groups read so far *)
let rec varint_tail d p u shift =
  (* 9 seven-bit groups cover a 63-bit int; a 10th would shift past the
     word (unspecified in OCaml) *)
  if p >= d.stop || shift > Sys.int_size - 7 then malformed ();
  let b = Char.code (Bytes.unsafe_get d.src p) in
  let u = u lor ((b land 0x7f) lsl shift) in
  if b >= 0x80 then varint_tail d (p + 1) u (shift + 7)
  else if b = 0 then malformed () (* a zero last group: an overlong encoding *)
  else begin
    d.pos <- p + 1;
    u
  end

let read_varint d =
  let p = d.pos in
  if p >= d.stop then malformed ();
  let b = Char.code (Bytes.unsafe_get d.src p) in
  let u =
    if b < 0x80 then begin
      d.pos <- p + 1;
      b
    end
    else varint_tail d (p + 1) (b land 0x7f) 7
  in
  (* undo the zigzag *)
  (u lsr 1) lxor (- (u land 1))

let read_count d =
  let n = read_varint d in
  if n < 0 then malformed ();
  n

(* an index above [prev]: bindings and buffers are written in index order *)
let read_index d ~prev len =
  let i = read_varint d in
  if i <= prev || i >= max_index then malformed ();
  if i >= len then raise (Outside i);
  i

(* [Array.copy] without its C call for one- and two-element arrays; the
   annotations spare each copy the float-array check *)
let copy_ints (a : int array) =
  match Array.length a with
  | 1 -> [| Array.unsafe_get a 0 |]
  | 2 -> [| Array.unsafe_get a 0; Array.unsafe_get a 1 |]
  | _ -> Array.copy a

let copy_queues (a : int list array) =
  match Array.length a with
  | 1 -> [| Array.unsafe_get a 0 |]
  | 2 -> [| Array.unsafe_get a 0; Array.unsafe_get a 1 |]
  | _ -> Array.copy a

let copy_threads (a : thread array) =
  match Array.length a with
  | 1 -> [| Array.unsafe_get a 0 |]
  | 2 -> [| Array.unsafe_get a 0; Array.unsafe_get a 1 |]
  | _ -> Array.copy a

(* [n] (index, non-zero value) pairs over a copy of the all-zero [zero] *)
let read_bindings d zero =
  match read_count d with
  | 0 -> zero
  | n ->
    let a = copy_ints zero in
    let prev = ref (-1) in
    for _ = 1 to n do
      let i = read_index d ~prev:!prev (Array.length a) in
      let v = read_varint d in
      if v = 0 then malformed ();
      Array.unsafe_set a i v;
      prev := i
    done;
    a

(* queues are oldest first on both sides *)
let rec read_fifo d n =
  if n = 0 then []
  else begin
    let l = read_varint d in
    let v = read_varint d in
    (l, v) :: read_fifo d (n - 1)
  end

let rec read_list d n =
  if n = 0 then []
  else begin
    let v = read_varint d in
    v :: read_list d (n - 1)
  end

let read_perloc d zero =
  match read_count d with
  | 0 -> zero
  | n ->
    let q = copy_queues zero in
    let prev = ref (-1) in
    for _ = 1 to n do
      let loc = read_index d ~prev:!prev (Array.length q) in
      let len = read_count d in
      if len = 0 then malformed ();
      d.queued <- d.queued + len;
      Array.unsafe_set q loc (read_list d len);
      prev := loc
    done;
    q

(* the number of set bits of a mask below 2^60 (SWAR) *)
let popcount x =
  let x = x - ((x lsr 1) land 0x0555555555555555) in
  let x = (x land 0x0333333333333333) + ((x lsr 2) land 0x0333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let read_thread d k zt =
  let executed = read_varint d in
  if executed < 0 || executed >= 1 lsl Array.length zt.prog then malformed ();
  let regs = read_bindings d zt.regs in
  let nfifo = read_count d in
  let fifo = read_fifo d nfifo in
  d.queued <- nfifo;
  let perloc = read_perloc d zt.perloc in
  (* one per transition: an executed instruction, plus, when stores are
     buffered, a store that has left its buffer (executed stores minus
     the entries still queued) *)
  let drained =
    if d.buffered then popcount (executed land Array.unsafe_get d.layout.store_masks k) - d.queued
    else 0
  in
  d.depth <- d.depth + popcount executed + drained;
  { zt with executed; regs; fifo; perloc }

(* read the key from section [j] on (0 is memory, [k + 1] thread [k]);
   the sections before [j] are [d.last]'s, whose bytes the key shares *)
let decode_key d j =
  let z = d.zero and n = Array.length d.marks - 1 in
  let mem = if j > 0 then d.last.mem else (d.pos <- 0; read_bindings d z.mem) in
  if j = 0 then d.marks.(0) <- d.pos;
  d.pos <- d.marks.(Int.max 0 (j - 1));
  d.depth <- d.sums.(Int.max 0 (j - 1));
  let threads = copy_threads (if j > 1 then d.last.threads else z.threads) in
  for k = Int.max 0 (j - 1) to n - 1 do
    Array.unsafe_set threads k (read_thread d k (Array.unsafe_get z.threads k));
    d.marks.(k + 1) <- d.pos;
    d.sums.(k + 1) <- d.depth
  done;
  if d.pos <> d.stop then malformed ();
  { mem; threads }

let rec decode ?(shared = 0) d b len =
  if len < 0 || len > Bytes.length b then invalid_arg "State.decode: length";
  (* the last key's sections that end inside the shared prefix *)
  let j = ref 0 in
  if d.valid then
    while !j < Array.length d.marks && d.marks.(!j) <= Int.min shared len do
      incr j
    done;
  d.valid <- false;
  d.src <- b;
  d.stop <- len;
  match decode_key d !j with
  | st ->
    d.last <- st;
    d.valid <- true;
    st
  | exception Outside i ->
    (* rare (never for keys of states built from the decoder's own
       layout): widen every array to cover index [i], and start over *)
    let l = d.layout in
    d.layout <-
      { l with mem_len = max l.mem_len (i + 1); reg_lens = Array.map (max (i + 1)) l.reg_lens };
    d.zero <- empty_of d.layout;
    decode d b len

let decoded_depth d = d.depth

let of_packed_key ~programs key =
  let d = make_decoder ~buffered:false (layout_of (Array.of_list programs) ~locs:[]) in
  decode d (Bytes.unsafe_of_string key) (String.length key)

(* -- splicing -----------------------------------------------------------
   States are copy-on-write, so a successor's [mem] and each of its
   thread records are physically equal to its parent's exactly where the
   transition left them alone, and an unchanged section packs to the
   parent key's bytes (packing is canonical, and a decoded parent's key
   is its packed key because decoding is strict). Those bytes are
   copied, one blit per run of adjacent unchanged sections; only the
   changed sections are encoded. One routine serves both enumerators:
   the in-RAM worklist keeps each state's key and ends beside it, the
   external one splices from the key it last decoded. *)

let put_bytes p b off len =
  if len > 0 then begin
    reserve p len;
    Bytes.blit b off p.bytes p.len len;
    p.len <- p.len + len
  end

let splice p ~parent key key_ends st =
  let n = Array.length st.threads in
  if Array.length parent.threads <> n then pack p st
  else begin
    let ends = ends_for p n in
    p.len <- 0;
    (* [from, upto): parent bytes waiting to be copied; a section ends
       where the output will stand once they are *)
    let from = ref 0 and upto = ref 0 in
    if st.mem == parent.mem then upto := key_ends.(0) else put_bindings p st.mem;
    Array.unsafe_set ends 0 (p.len + !upto - !from);
    for k = 0 to n - 1 do
      let th = Array.unsafe_get st.threads k in
      if th == Array.unsafe_get parent.threads k then begin
        if !from = !upto then from := key_ends.(k);
        upto := key_ends.(k + 1)
      end
      else begin
        put_bytes p key !from (!upto - !from);
        from := !upto;
        put_thread p th
      end;
      Array.unsafe_set ends (k + 1) (p.len + !upto - !from)
    done;
    put_bytes p key !from (!upto - !from)
  end

let pack_successor d p st =
  if d.valid then splice p ~parent:d.last d.src d.marks st else pack p st

let pp fmt st =
  Format.fprintf fmt "mem:";
  Array.iteri (fun i v -> if v <> 0 then Format.fprintf fmt " [%d]=%d" i v) st.mem;
  Array.iteri
    (fun k th ->
      Format.fprintf fmt "@.T%d: executed=%x regs:" k th.executed;
      Array.iteri (fun i v -> if v <> 0 then Format.fprintf fmt " r%d=%d" i v) th.regs;
      if th.fifo <> [] then begin
        Format.fprintf fmt " fifo:";
        List.iter (fun (l, v) -> Format.fprintf fmt " (%d,%d)" l v) th.fifo
      end)
    st.threads
