module Budget = Memrel_prob.Budget
module Snapshot = Memrel_prob.Snapshot

exception Spill_error of string

let spill_error fmt = Printf.ksprintf (fun m -> raise (Spill_error m)) fmt

(* "run2": each entry carries its key's sleep set. "manifest3": the
   level-local layout (one frontier, no visited runs or bloom counters)
   over run2 frontiers. A spill directory written by an earlier layout
   fails the tag check with a typed error instead of being misparsed. *)
let run_tag = "extmem/run2"
let manifest_tag = "extmem/manifest3"
let manifest_file = "MANIFEST"
let merge_fan_in = 8

type ext_stats = {
  levels : int;
  spill_runs : int;
  spill_bytes : int;
  spill_generations : int;
  merges : int;
  bloom_probes : int;
  bloom_hits : int;
  bloom_false_positives : int;
  compactions : int;
  peak_level_states : int;
  resumed_at_level : int option;
}

type 'a result = { base : 'a Enumerate.result; ext : ext_stats }

(* -- engine state -------------------------------------------------------

   A logical run ("lrun") is an ordered list of file names whose
   concatenated decoded key streams form one sorted, duplicate-free
   sequence, each key with its sleep set. Between levels the whole spill
   state is the manifest and the frontier: the lrun of the level about to
   be expanded. *)

(* everything the manifest checkpoints besides the frontier and outcomes *)
type counters = {
  mutable file_seq : int;
  mutable level : int;  (* BFS depth of the states now in the frontier *)
  mutable deepest : int;  (* deepest level actually expanded *)
  mutable expanded : int;
  mutable terminals : int;
  mutable transitions : int;
  mutable dedup_hits : int;
  mutable frontier_states : int;
  mutable max_level_states : int;
  mutable por_ample_states : int;
  mutable por_pruned : int;
  mutable spill_runs : int;
  mutable spill_bytes : int;
  mutable spill_generations : int;
  mutable merges : int;
}

type 'a eng = {
  dir : string;
  run_cap : int;  (* payload bytes per run file *)
  mem_budget : int;  (* footprint the successor arena may reach *)
  resume_key : string;
  c : counters;
  arena : Arena_set.t;  (* the next level's keys not yet spilled *)
  decoder : State.decoder;  (* the root's layout, computed once per run *)
  packer : State.packer;
  discipline : Semantics.discipline;
  space : Enumerate.space;
  bits : int array;  (* the codes to take from the state being expanded *)
  outcome_counts : ('a, int) Hashtbl.t;
  mutable frontier : string list;
  mutable gc_grace_level : int;
}

let delete_files eng files =
  List.iter (fun f -> try Sys.remove (Filename.concat eng.dir f) with Sys_error _ -> ()) files

(* -- run codec ----------------------------------------------------------

   A run file is a Snapshot container (tag "extmem/run2", tmp+rename
   atomic, CRC-32 validated on read) whose payload is:

     uvarint key-count, then per key:
       uvarint shared-prefix-len (with the previous key in this file)
       uvarint suffix-len
       suffix bytes
       uvarint sleep set (Enumerate.iter_awake's mask; 0 under POR)

   Keys are sorted, so consecutive packed state keys share long prefixes
   and the delta encoding compresses them well. Plain unsigned varints
   frame the payload (the zigzag form in State is for signed values). *)

let add_uvarint buf n =
  let u = ref n in
  while !u land lnot 0x7f <> 0 do
    Buffer.add_char buf (Char.unsafe_chr (0x80 lor (!u land 0x7f)));
    u := !u lsr 7
  done;
  Buffer.add_char buf (Char.unsafe_chr !u)

(* streaming reader over a logical run. The previous key is extended in
   place: after [reader_next] returns [true] the current key is the first
   [len] bytes of [key], valid until the next call, [mask] its sleep set,
   and its first [shared] bytes are the previous key's (0 for the first
   key of each file). *)
type reader = {
  rdir : string;
  mutable files : string list;  (* still unread *)
  mutable file : string;
  mutable src : string;  (* the current file's payload *)
  mutable p : int;
  mutable remaining : int;  (* keys left in [src] *)
  mutable key : Bytes.t;
  mutable len : int;
  mutable shared : int;
  mutable mask : int;
}

let reader_open eng lrun =
  { rdir = eng.dir; files = lrun; file = ""; src = ""; p = 0; remaining = 0;
    key = Bytes.create 64; len = 0; shared = 0; mask = 0 }

let read_uvarint r =
  let u = ref 0 and shift = ref 0 and again = ref true in
  while !again do
    if r.p >= String.length r.src || !shift > Sys.int_size - 7 then
      spill_error "spill run %s: truncated or overlong varint" r.file;
    let b = Char.code (String.unsafe_get r.src r.p) in
    r.p <- r.p + 1;
    u := !u lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then again := false
  done;
  !u

let rec reader_next r =
  if r.remaining > 0 then begin
    let plen = read_uvarint r in
    let slen = read_uvarint r in
    if plen > r.len || r.p + slen > String.length r.src then
      spill_error "spill run %s: corrupt delta entry" r.file;
    let n = plen + slen in
    if n > Bytes.length r.key then begin
      let b = Bytes.create (Int.max n (2 * Bytes.length r.key)) in
      Bytes.blit r.key 0 b 0 plen;
      r.key <- b
    end;
    Bytes.blit_string r.src r.p r.key plen slen;
    r.p <- r.p + slen;
    r.len <- n;
    r.shared <- plen;
    r.mask <- read_uvarint r;
    r.remaining <- r.remaining - 1;
    true
  end
  else
    match r.files with
    | [] -> false
    | f :: rest ->
      r.files <- rest;
      (match Snapshot.read ~file:(Filename.concat r.rdir f) ~tag:run_tag with
       | Error e -> spill_error "spill run %s: %s" f (Snapshot.error_to_string e)
       | Ok payload ->
         r.file <- f;
         r.src <- payload;
         r.p <- 0;
         r.len <- 0;
         r.remaining <- read_uvarint r;
         reader_next r)

(* chunked writer: emits a new file whenever the encoded payload reaches
   the cap, so no reader ever holds more than one cap of payload. Keys are
   taken as [len] bytes at [off], straight from the arena or a merge, with
   their sleep set [mask]. *)
type writer = {
  wdir : string;
  cap : int;
  wc : counters;
  mutable wfiles : string list;  (* reverse order *)
  buf : Buffer.t;
  mutable prev : Bytes.t;  (* the previous key in this file, a copy *)
  mutable prev_len : int;
  mutable count : int;
}

let writer_make eng =
  { wdir = eng.dir; cap = eng.run_cap; wc = eng.c; wfiles = []; buf = Buffer.create 65536;
    prev = Bytes.create 64; prev_len = 0; count = 0 }

let writer_flush w =
  if w.count > 0 then begin
    (* the key count, then the entries, copied once *)
    let head = Buffer.create 10 in
    add_uvarint head w.count;
    let hl = Buffer.length head and bl = Buffer.length w.buf in
    let payload = Bytes.create (hl + bl) in
    Buffer.blit head 0 payload 0 hl;
    Buffer.blit w.buf 0 payload hl bl;
    let name = Printf.sprintf "r%06d.run" w.wc.file_seq in
    w.wc.file_seq <- w.wc.file_seq + 1;
    (match
       Snapshot.write ~file:(Filename.concat w.wdir name) ~tag:run_tag
         (Bytes.unsafe_to_string payload)
     with
     | Ok () -> ()
     | Error e -> spill_error "cannot write spill run %s: %s" name (Snapshot.error_to_string e));
    w.wc.spill_runs <- w.wc.spill_runs + 1;
    w.wc.spill_bytes <- w.wc.spill_bytes + Bytes.length payload;
    w.wfiles <- name :: w.wfiles;
    Buffer.clear w.buf;
    w.prev_len <- 0;
    w.count <- 0
  end

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"

(* how many of the first [n] bytes of [a] at [ao] and [b] at [bo] agree
   before the first that differs, compared eight at a time *)
let common_prefix a ao b bo n =
  let i = ref 0 in
  while !i + 8 <= n && get64 a (ao + !i) = get64 b (bo + !i) do
    i := !i + 8
  done;
  while !i < n && Bytes.unsafe_get a (ao + !i) = Bytes.unsafe_get b (bo + !i) do
    incr i
  done;
  !i

let writer_add w b off len mask =
  let p = common_prefix b off w.prev 0 (Int.min len w.prev_len) in
  add_uvarint w.buf p;
  add_uvarint w.buf (len - p);
  Buffer.add_subbytes w.buf b (off + p) (len - p);
  add_uvarint w.buf mask;
  if len > Bytes.length w.prev then
    w.prev <- Bytes.create (Int.max len (2 * Bytes.length w.prev));
  Bytes.blit b off w.prev 0 len;
  w.prev_len <- len;
  w.count <- w.count + 1;
  if Buffer.length w.buf >= w.cap then writer_flush w

let writer_finish w =
  writer_flush w;
  List.rev w.wfiles

(* -- k-way merge --------------------------------------------------------

   Merges sorted-unique logical runs into one sorted stream, emitting each
   distinct key once with the AND of its sleep sets in every run that
   holds it, and deletes the inputs. Fan-in is capped at
   [merge_fan_in]: wider merges first fold batches into intermediate lruns
   (hierarchical merge). *)

(* byte order of two readers' current keys, a shorter prefix first:
   [String.compare]'s order *)
let compare_keys a b =
  let n = Int.min a.len b.len in
  let i = common_prefix a.key 0 b.key 0 n in
  if i < n then Char.compare (Bytes.unsafe_get a.key i) (Bytes.unsafe_get b.key i)
  else Int.compare a.len b.len

let merge_readers readers ~emit =
  let live = Array.map reader_next readers in
  let least = ref (-1) in
  let pick () =
    least := -1;
    for i = 0 to Array.length readers - 1 do
      if live.(i) && (!least < 0 || compare_keys readers.(i) readers.(!least) < 0) then least := i
    done
  in
  pick ();
  while !least >= 0 do
    let m = !least in
    let r = readers.(m) in
    (* every other reader at the same key moves past it, then [r] does *)
    let mask = ref r.mask in
    for i = 0 to Array.length readers - 1 do
      if i <> m && live.(i) && compare_keys readers.(i) r = 0 then begin
        mask := !mask land readers.(i).mask;
        live.(i) <- reader_next readers.(i)
      end
    done;
    emit r.key 0 r.len !mask;
    live.(m) <- reader_next r;
    pick ()
  done

let rec merge_runs eng lruns ~emit =
  if List.length lruns <= merge_fan_in then begin
    eng.c.merges <- eng.c.merges + 1;
    merge_readers (Array.of_list (List.map (reader_open eng) lruns)) ~emit;
    List.iter (delete_files eng) lruns
  end
  else begin
    let w = writer_make eng in
    merge_runs eng (List.filteri (fun i _ -> i < merge_fan_in) lruns) ~emit:(writer_add w);
    merge_runs eng (List.filteri (fun i _ -> i >= merge_fan_in) lruns @ [ writer_finish w ]) ~emit
  end

(* -- manifest -----------------------------------------------------------

   One per-level checkpoint (tag "extmem/manifest3"), atomically replaced
   after each completed level: the resume key, the counters, the frontier
   lrun's file list and the outcome table, marshalled (the Snapshot CRC
   and tag guard the bytes). No mid-level manifests exist, so a resume
   always restarts at the last complete level and replays
   deterministically — bit-identical to an uninterrupted run. *)

let write_manifest eng =
  (* a named kill-at-a-seam drill point: chaos plans can kill the run at
     the exact instant before a level commits, proving resume replays the
     level rather than trusting half-committed state *)
  Memrel_prob.Faultio.crash_site "extmem/manifest";
  let outcomes =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) eng.outcome_counts [])
  in
  let payload = Marshal.to_string (eng.resume_key, eng.c, eng.frontier, outcomes) [] in
  match Snapshot.write ~file:(Filename.concat eng.dir manifest_file) ~tag:manifest_tag payload with
  | Ok () -> ()
  | Error e -> spill_error "cannot write manifest: %s" (Snapshot.error_to_string e)

let read_manifest dir ~resume_key =
  let path = Filename.concat dir manifest_file in
  if not (Sys.file_exists path) then spill_error "no manifest to resume from in %s" dir;
  match Snapshot.read ~file:path ~tag:manifest_tag with
  | Error e -> spill_error "manifest: %s" (Snapshot.error_to_string e)
  | Ok payload ->
    let key, c, frontier, outcomes =
      try (Marshal.from_string payload 0 : string * counters * string list * ('a * int) list)
      with _ -> spill_error "manifest: corrupt payload"
    in
    if not (String.equal key resume_key) then
      spill_error
        "spill directory %s belongs to a different enumeration (resume key %S, expected %S)" dir
        key resume_key;
    (c, frontier, outcomes)

let is_spill_file f =
  Filename.check_suffix f ".run" || Filename.check_suffix f ".tmp"
  || String.equal f manifest_file

let clean_dir dir ~keep =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun f ->
        if is_spill_file f && not (List.mem f keep) then
          try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      entries

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* -- level expansion ----------------------------------------------------

   Depth lemma: every transition executes one instruction or drains one
   buffered store, so a successor's depth is its parent's plus one. BFS
   levels therefore partition the state space, a state can only duplicate
   a state of its own level, and deduplicating each level on its own is
   exact: the traversal expands each state exactly once, over the same
   reduced graph as the in-RAM worklist (the POR choice is a per-state
   function; see Enumerate.expand). The lemma is checked on every state
   expanded, against the depth the decoder sums as it reads the key.

   Sleep sets (Enumerate.iter_awake, the in-RAM worklist's rule) ride
   with the keys: the arena ANDs the sleep sets of a key's admitting
   edges, the merge ANDs them across overflow runs, so a state is
   expanded with the intersection over every edge that admitted it, and
   its sleeping labels are counted but never built. DESIGN.md §8 has the
   argument that this admits every state.

   Each key is decoded straight from the reader's buffer, and successors
   are packed by splicing the sections they share with it
   (State.pack_successor), so the buffer must not move until they are
   all in the arena. *)

exception Stop of Budget.cause

let budget_check eng budget =
  match budget with
  | None -> None
  | Some b -> (
    match Budget.check b with
    | Some Budget.Memory when eng.gc_grace_level <> eng.c.level ->
      (* a watermark trip may be transient garbage: compact the heap once
         per level and re-check before declaring the budget exhausted
         (the watermark reads Gc heap_words, which full_major alone never
         lowers; Gc.compact shrinks it where the runtime supports heap
         compaction, and elsewhere — OCaml 5.0/5.1 — still frees every
         dead block for reuse, keeping heap_words at the live peak instead
         of compounding per level) *)
      eng.gc_grace_level <- eng.c.level;
      Gc.compact ();
      Budget.check b
    | r -> r)

(* write the arena's keys and sleep sets as one sorted run and empty the
   arena *)
let spill_arena eng =
  let w = writer_make eng in
  Arena_set.iter eng.arena (writer_add w);
  Arena_set.clear eng.arena;
  writer_finish w

(* expand the frontier level into its successors' keys: deduplicated in
   the arena, which is written out as a sorted overflow run whenever its
   footprint passes the budget. Returns the overflow runs, newest first. *)
let expand_level eng ~observe ~max_states ~budget =
  let c = eng.c in
  c.deepest <- c.level;
  let overflow = ref [] and read = ref 0 in
  let r = reader_open eng eng.frontier in
  (* splice the successor along code [c] of [st] into the arena, with
     sleep set [z] *)
  let push_child st c z =
    let st' = Semantics.step eng.discipline st (Semantics.label (Enumerate.codes eng.space) c) in
    State.pack_successor eng.decoder eng.packer st';
    ignore
      (Arena_set.add_value eng.arena (State.packed_bytes eng.packer)
         (State.packed_length eng.packer) (Enumerate.renumber eng.space z))
  in
  let rec go () =
    if reader_next r then begin
      if c.expanded >= max_states then raise (Stop Budget.Work);
      (match budget_check eng budget with
       | Some cause -> raise (Stop cause)
       | None -> ( match budget with None -> () | Some b -> Budget.spend b 1));
      c.expanded <- c.expanded + 1;
      incr read;
      let st =
        try State.decode ~shared:r.shared eng.decoder r.key r.len
        with Invalid_argument _ -> spill_error "corrupt state key in spill run"
      in
      let depth = State.decoded_depth eng.decoder in
      if depth <> c.level then
        spill_error "a depth-%d state in the level-%d frontier: levels must partition the states"
          depth c.level;
      Semantics.state_bits (Enumerate.codes eng.space) eng.bits st;
      let pruned = Enumerate.select eng.space st eng.bits in
      if pruned > 0 then begin
        c.por_ample_states <- c.por_ample_states + 1;
        c.por_pruned <- c.por_pruned + pruned
      end;
      (match Semantics.count eng.bits with
       | 0 ->
         c.terminals <- c.terminals + 1;
         let o = observe st in
         Hashtbl.replace eng.outcome_counts o
           (1 + Option.value ~default:0 (Hashtbl.find_opt eng.outcome_counts o))
       | n ->
         c.transitions <- c.transitions + n;
         let sleep = Enumerate.renumber eng.space r.mask in
         ignore (Enumerate.iter_awake eng.space ~sleep eng.bits push_child st);
         if Arena_set.footprint eng.arena > eng.mem_budget then begin
           c.spill_generations <- c.spill_generations + 1;
           overflow := spill_arena eng :: !overflow
         end);
      go ()
    end
  in
  (* an interrupted level leaves no overflow runs behind *)
  (try go ()
   with e ->
     List.iter (delete_files eng) !overflow;
     raise e);
  if !read <> c.frontier_states then
    spill_error "inconsistent spill directory: %d frontier keys on disk, manifest expects %d" !read
      c.frontier_states;
  !overflow

(* close the level: the next frontier is the arena written out as-is when
   the level never overflowed, else the k-way merge of its overflow runs
   and the arena's remainder. The manifest then commits the new frontier,
   and only after that is the old one deleted. *)
let commit_level eng overflow ~level_transitions =
  let c = eng.c in
  let next, unique =
    match overflow with
    | [] ->
      let n = Arena_set.length eng.arena in
      (spill_arena eng, n)
    | runs ->
      let w = writer_make eng and unique = ref 0 in
      merge_runs eng
        (List.rev (spill_arena eng :: runs))
        ~emit:(fun b off len mask ->
          incr unique;
          writer_add w b off len mask);
      (writer_finish w, !unique)
  in
  (* every successor that is not a new unique key was a duplicate *)
  c.dedup_hits <- c.dedup_hits + (c.transitions - level_transitions) - unique;
  let old = eng.frontier in
  c.level <- c.level + 1;
  eng.frontier <- next;
  c.frontier_states <- unique;
  if unique > c.max_level_states then c.max_level_states <- unique;
  write_manifest eng;
  delete_files eng old

(* -- driver ------------------------------------------------------------- *)

let default_mem_budget = 64 * 1024 * 1024

let outcomes ?(max_states = max_int) ?(por = false) ?budget
    ?(mem_budget_bytes = default_mem_budget) ?(resume = false) ~spill_dir ~resume_key
    discipline root ~observe =
  let t0 = Unix.gettimeofday () in
  let c, frontier, outcomes =
    if resume then read_manifest spill_dir ~resume_key
    else begin
      mkdir_p spill_dir;
      ( {
          file_seq = 0; level = 0; deepest = 0; expanded = 0; terminals = 0; transitions = 0;
          dedup_hits = 0; frontier_states = 1; max_level_states = 1; por_ample_states = 0;
          por_pruned = 0; spill_runs = 0; spill_bytes = 0; spill_generations = 0; merges = 0;
        },
        [],
        [] )
    end
  in
  let mem_budget = max 65536 mem_budget_bytes in
  let space = Enumerate.space ~por discipline root in
  let eng =
    {
      dir = spill_dir;
      run_cap = max 4096 (mem_budget / 16);
      mem_budget;
      resume_key;
      c;
      arena = Arena_set.create ~value_bytes:(Enumerate.sleep_bytes space) ();
      decoder = State.decoder ~buffered:(Semantics.buffered discipline) root;
      packer = State.packer ();
      discipline;
      space;
      bits = Semantics.bitset (Enumerate.codes space);
      outcome_counts = Hashtbl.create 64;
      frontier;
      gc_grace_level = -1;
    }
  in
  List.iter (fun (o, n) -> Hashtbl.replace eng.outcome_counts o n) outcomes;
  (* a resume keeps only what the manifest references; the frontier's runs
     are CRC-checked, and counted against it, as the level reads them *)
  clean_dir spill_dir ~keep:(if resume then manifest_file :: frontier else []);
  if not resume then begin
    let w = writer_make eng in
    State.pack eng.packer root;
    writer_add w (State.packed_bytes eng.packer) 0 (State.packed_length eng.packer) 0;
    eng.frontier <- writer_finish w;
    write_manifest eng
  end;
  let resumed_at_level = if resume then Some c.level else None in
  let exhausted = ref None in
  (try
     while eng.frontier <> [] do
       let level_transitions = c.transitions in
       let overflow = expand_level eng ~observe ~max_states ~budget in
       commit_level eng overflow ~level_transitions;
       (* hold the heap near its live size so a Budget memory watermark
          measures the engine's true footprint, not transient level
          garbage; where the runtime compacts (5.2+) this also shrinks
          the watermark's heap_words reading, and on non-compacting
          runtimes it caps heap growth at the per-level live peak *)
       Gc.compact ()
     done
   with Stop cause ->
     exhausted :=
       Some
         (match budget with
          | Some b -> Budget.exhaustion b cause
          | None ->
            { Budget.cause; work_done = c.expanded; elapsed_s = Unix.gettimeofday () -. t0 }));
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) eng.outcome_counts [] in
  let base =
    {
      Enumerate.outcomes = List.sort compare l;
      states_visited = c.expanded;
      terminals = c.terminals;
      stats =
        {
          Enumerate.elapsed_s;
          states_per_sec = (if elapsed_s > 0.0 then float_of_int c.expanded /. elapsed_s else 0.0);
          transitions = c.transitions;
          dedup_hits = c.dedup_hits;
          max_depth = c.deepest;
          max_frontier = c.max_level_states;
          por_ample_states = c.por_ample_states;
          por_pruned = c.por_pruned;
        };
      exhausted = !exhausted;
    }
  in
  {
    base;
    ext =
      {
        levels = c.level;
        spill_runs = c.spill_runs;
        spill_bytes = c.spill_bytes;
        spill_generations = c.spill_generations;
        merges = c.merges;
        bloom_probes = 0;
        bloom_hits = 0;
        bloom_false_positives = 0;
        compactions = 0;
        peak_level_states = c.max_level_states;
        resumed_at_level;
      };
  }

let can_resume dir = Sys.file_exists (Filename.concat dir manifest_file)

let remove_spill_dir dir =
  clean_dir dir ~keep:[];
  try Unix.rmdir dir with Unix.Unix_error _ -> ()
