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

type layout = { progs : Instr.t array array; mem_len : int; reg_lens : int array }

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

let layout_of progs ~locs =
  { progs;
    mem_len = extent "location" (List.concat (locs :: List.map prog_locs (Array.to_list progs)));
    reg_lens = Array.map (fun prog -> extent "register" (prog_regs prog)) progs }

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
   state allocates nothing once the scratch has grown to the key size. *)

type packer = { mutable bytes : Bytes.t; mutable len : int }

let packer () = { bytes = Bytes.create 128; len = 0 }
let packed_bytes p = p.bytes
let packed_length p = p.len
let packed_string p = Bytes.sub_string p.bytes 0 p.len

let put_varint p n =
  (* a 63-bit varint takes at most 9 bytes *)
  if p.len + 10 > Bytes.length p.bytes then begin
    let b = Bytes.create (2 * Bytes.length p.bytes) in
    Bytes.blit p.bytes 0 b 0 p.len;
    p.bytes <- b
  end;
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

let pack p st =
  p.len <- 0;
  put_bindings p st.mem;
  for k = 0 to Array.length st.threads - 1 do
    let th = Array.unsafe_get st.threads k in
    put_varint p th.executed;
    put_bindings p th.regs;
    put_varint p (List.length th.fifo);
    put_fifo p th.fifo;
    put_perloc p th.perloc
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
   programs never touch, e.g. an initial-memory cell) decodes through a
   layout widened to cover it. *)

type decoder = { layout : layout; zero : t }

let decoder_of_layout layout = { layout; zero = empty_of layout }

let decoder st =
  decoder_of_layout
    { progs = Array.map (fun th -> th.prog) st.threads;
      mem_len = Array.length st.mem;
      reg_lens = Array.map (fun th -> Array.length th.regs) st.threads }

let decode_error () = invalid_arg "State.of_packed_key: malformed key"

(* a binding past the decoder's layout *)
exception Outside of int

let read_varint s pos =
  let u = ref 0 and shift = ref 0 and again = ref true and p = ref !pos in
  while !again do
    (* 9 seven-bit groups cover a 63-bit int; a 10th would shift past the
       word (unspecified in OCaml), so reject overlong encodings first *)
    if !p >= String.length s || !shift > Sys.int_size - 7 then decode_error ();
    let b = Char.code (String.unsafe_get s !p) in
    incr p;
    u := !u lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then again := false
  done;
  pos := !p;
  (* undo the zigzag *)
  (!u lsr 1) lxor (- (!u land 1))

let read_count s pos =
  let n = read_varint s pos in
  if n < 0 then decode_error ();
  n

let read_index s pos len =
  let i = read_varint s pos in
  if i < 0 || i >= max_index then decode_error ();
  if i >= len then raise (Outside i);
  i

(* [n] (index, value) pairs over a copy of the all-zero [zero] *)
let read_bindings s pos zero =
  match read_count s pos with
  | 0 -> zero
  | n ->
    let a = Array.copy zero in
    for _ = 1 to n do
      let i = read_index s pos (Array.length a) in
      a.(i) <- read_varint s pos
    done;
    a

(* builds in encoding order: queue entries are oldest-first on both sides *)
let read_fifo s pos =
  let rec go acc k =
    if k = 0 then List.rev acc
    else begin
      let l = read_varint s pos in
      let v = read_varint s pos in
      go ((l, v) :: acc) (k - 1)
    end
  in
  go [] (read_count s pos)

let read_list s pos =
  let rec go acc k = if k = 0 then List.rev acc else go (read_varint s pos :: acc) (k - 1) in
  go [] (read_count s pos)

let read_perloc s pos zero =
  match read_count s pos with
  | 0 -> zero
  | n ->
    let q = Array.copy zero in
    for _ = 1 to n do
      let loc = read_index s pos (Array.length q) in
      q.(loc) <- read_list s pos
    done;
    q

let read_thread s pos zt =
  let executed = read_varint s pos in
  if executed < 0 || executed >= 1 lsl Array.length zt.prog then decode_error ();
  let regs = read_bindings s pos zt.regs in
  let fifo = read_fifo s pos in
  let perloc = read_perloc s pos zt.perloc in
  { zt with executed; regs; fifo; perloc }

let rec decode d key =
  let pos = ref 0 in
  match
    let mem = read_bindings key pos d.zero.mem in
    (mem, Array.map (read_thread key pos) d.zero.threads)
  with
  | mem, threads ->
    if !pos <> String.length key then decode_error ();
    { mem; threads }
  | exception Outside i ->
    (* rare (never for keys of states built from the decoder's own
       layout): retry with every array long enough for index [i] *)
    let l = d.layout in
    decode
      (decoder_of_layout
         { l with mem_len = max l.mem_len (i + 1); reg_lens = Array.map (max (i + 1)) l.reg_lens })
      key

let of_packed_key ~programs key =
  decode (decoder_of_layout (layout_of (Array.of_list programs) ~locs:[])) key

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
