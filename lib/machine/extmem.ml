module Budget = Memrel_prob.Budget
module Snapshot = Memrel_prob.Snapshot

exception Spill_error of string

let spill_error fmt = Printf.ksprintf (fun m -> raise (Spill_error m)) fmt

let run_tag = "extmem/run"
let manifest_tag = "extmem/manifest"
let manifest_file = "MANIFEST"
let merge_fan_in = 8
let compact_threshold = 24

type ext_stats = {
  levels : int;
  spill_runs : int;
  spill_bytes : int;
  spill_generations : int;
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
   sequence. [visited] is a list of lruns (newest first; its head is the
   current frontier's lrun whenever the frontier is non-empty); their union
   is exactly the set of states admitted so far. *)

type 'a eng = {
  dir : string;
  resume_key : string;
  run_cap : int;  (* payload bytes per run file / per in-RAM batch *)
  bloom : Bytes.t;
  bloom_bits : int;
  decoder : State.decoder;  (* the root's layout, computed once per run *)
  packer : State.packer;
  discipline : Semantics.discipline;
  por : bool;
  outcome_counts : ('a, int) Hashtbl.t;
  mutable visited : string list list;
  mutable frontier : string list;
  mutable file_seq : int;
  mutable level : int;  (* BFS depth of the states now in [frontier] *)
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
  mutable bloom_probes : int;
  mutable bloom_hits : int;
  mutable bloom_fp : int;
  mutable compactions : int;
  mutable gc_grace_level : int;
  mutable resumed_at : int option;
}

let alloc_file eng =
  let name = Printf.sprintf "r%06d.run" eng.file_seq in
  eng.file_seq <- eng.file_seq + 1;
  name

let delete_files eng files =
  List.iter
    (fun f -> try Sys.remove (Filename.concat eng.dir f) with Sys_error _ -> ())
    files

(* -- bloom filter front -------------------------------------------------

   Double hashing over two FNV-1a-style 62-bit hashes, k = 4 probes. A
   negative answer is definitive (the key was never inserted), so most new
   states skip the disk probe entirely; a positive answer is resolved
   against the on-disk visited runs. Sized at mem_budget/4 bytes. *)

let bloom_k = 4

let hash_string seed s =
  let h = ref (seed lxor 0x3f29ce484222325) in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) s;
  let x = !h lxor (!h lsr 29) in
  (x * 0x100000001b3) land max_int

let bloom_probe eng key f =
  let h1 = hash_string 0 key and h2 = hash_string 1 key lor 1 in
  let ok = ref true in
  for i = 0 to bloom_k - 1 do
    if !ok then begin
      let bit = (h1 + (i * h2)) land max_int mod eng.bloom_bits in
      if not (f (bit lsr 3) (1 lsl (bit land 7))) then ok := false
    end
  done;
  !ok

let bloom_member eng key =
  bloom_probe eng key (fun byte mask -> Char.code (Bytes.unsafe_get eng.bloom byte) land mask <> 0)

let bloom_insert eng key =
  ignore
    (bloom_probe eng key (fun byte mask ->
         Bytes.unsafe_set eng.bloom byte
           (Char.unsafe_chr (Char.code (Bytes.unsafe_get eng.bloom byte) lor mask));
         true))

(* -- run codec ----------------------------------------------------------

   A run file is a Snapshot container (tag "extmem/run", tmp+rename atomic,
   CRC-32 validated on read) whose payload is:

     uvarint key-count, then per key:
       uvarint shared-prefix-len (with the previous key in this file)
       uvarint suffix-len
       suffix bytes

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

type cursor = { src : string; ctx : string; mutable p : int }

let cursor ~ctx src = { src; ctx; p = 0 }

let cur_uvarint c =
  let u = ref 0 and shift = ref 0 and again = ref true in
  while !again do
    if c.p >= String.length c.src || !shift > Sys.int_size - 7 then
      spill_error "%s: truncated or overlong varint" c.ctx;
    let b = Char.code (String.unsafe_get c.src c.p) in
    c.p <- c.p + 1;
    u := !u lor ((b land 0x7f) lsl !shift);
    shift := !shift + 7;
    if b land 0x80 = 0 then again := false
  done;
  !u

let cur_string c =
  let n = cur_uvarint c in
  if c.p + n > String.length c.src then spill_error "%s: truncated string" c.ctx;
  let s = String.sub c.src c.p n in
  c.p <- c.p + n;
  s

(* streaming reader over a logical run *)
type reader = {
  rdir : string;
  mutable rfiles : string list;
  mutable rcur : cursor;
  mutable rremaining : int;
  mutable rprev : string;
}

let reader_open eng lrun =
  { rdir = eng.dir; rfiles = lrun; rcur = cursor ~ctx:"" ""; rremaining = 0; rprev = "" }

let rec reader_next r =
  if r.rremaining > 0 then begin
    let c = r.rcur in
    let plen = cur_uvarint c in
    let slen = cur_uvarint c in
    if plen > String.length r.rprev || c.p + slen > String.length c.src then
      spill_error "%s: corrupt delta entry" c.ctx;
    let key = String.sub r.rprev 0 plen ^ String.sub c.src c.p slen in
    c.p <- c.p + slen;
    r.rremaining <- r.rremaining - 1;
    r.rprev <- key;
    Some key
  end
  else
    match r.rfiles with
    | [] -> None
    | f :: rest ->
      r.rfiles <- rest;
      (match Snapshot.read ~file:(Filename.concat r.rdir f) ~tag:run_tag with
       | Error e -> spill_error "spill run %s: %s" f (Snapshot.error_to_string e)
       | Ok payload ->
         r.rcur <- cursor ~ctx:("spill run " ^ f) payload;
         r.rprev <- "";
         r.rremaining <- cur_uvarint r.rcur;
         reader_next r)

(* chunked writer: emits a new file whenever the encoded payload reaches
   the cap, so a single logical run never needs more than one file of
   payload in RAM at a time *)
type writer = {
  weng : unit -> string;  (* allocate a file name *)
  wdir : string;
  wcap : int;
  wrecord : int -> unit;
  mutable wfiles : string list;  (* reverse order *)
  wbuf : Buffer.t;
  mutable wprev : string;
  mutable wcount : int;
}

let writer_make eng ~cap =
  {
    weng = (fun () -> alloc_file eng);
    wdir = eng.dir;
    wcap = cap;
    wrecord =
      (fun bytes ->
        eng.spill_runs <- eng.spill_runs + 1;
        eng.spill_bytes <- eng.spill_bytes + bytes);
    wfiles = [];
    wbuf = Buffer.create 65536;
    wprev = "";
    wcount = 0;
  }

let writer_flush w =
  if w.wcount > 0 then begin
    let payload = Buffer.create (Buffer.length w.wbuf + 10) in
    add_uvarint payload w.wcount;
    Buffer.add_buffer payload w.wbuf;
    let name = w.weng () in
    (match
       Snapshot.write ~file:(Filename.concat w.wdir name) ~tag:run_tag
         (Buffer.contents payload)
     with
     | Ok () -> ()
     | Error e -> spill_error "cannot write spill run %s: %s" name (Snapshot.error_to_string e));
    w.wrecord (Buffer.length payload);
    w.wfiles <- name :: w.wfiles;
    Buffer.clear w.wbuf;
    w.wprev <- "";
    w.wcount <- 0
  end

let writer_add w key =
  let n = min (String.length key) (String.length w.wprev) in
  let rec common i = if i < n && key.[i] = w.wprev.[i] then common (i + 1) else i in
  let p = common 0 in
  add_uvarint w.wbuf p;
  add_uvarint w.wbuf (String.length key - p);
  Buffer.add_substring w.wbuf key p (String.length key - p);
  w.wprev <- key;
  w.wcount <- w.wcount + 1;
  if Buffer.length w.wbuf >= w.wcap then writer_flush w

let writer_finish w =
  writer_flush w;
  List.rev w.wfiles

(* -- k-way merge --------------------------------------------------------

   Merges sorted-unique logical runs into one sorted stream, emitting each
   distinct key once. Fan-in is capped at [merge_fan_in]; wider merges go
   through [reduce_fan_in], which folds batches into intermediate lruns
   first (hierarchical merge). *)

let merge_readers readers ~emit =
  let cur = Array.map reader_next readers in
  let rec loop () =
    let min_key = ref None in
    Array.iter
      (fun c ->
        match c with
        | None -> ()
        | Some k -> (
          match !min_key with
          | Some mk when String.compare mk k <= 0 -> ()
          | _ -> min_key := Some k))
      cur;
    match !min_key with
    | None -> ()
    | Some k ->
      Array.iteri
        (fun i c ->
          match c with
          | Some k' when String.equal k' k -> cur.(i) <- reader_next readers.(i)
          | _ -> ())
        cur;
      emit k;
      loop ()
  in
  loop ()

let merge_lruns eng lruns ~emit =
  merge_readers (Array.of_list (List.map (reader_open eng) lruns)) ~emit

let rec take n = function
  | [] -> ([], [])
  | l when n = 0 -> ([], l)
  | x :: rest ->
    let a, b = take (n - 1) rest in
    (x :: a, b)

(* [defer]: during compaction the inputs are referenced by the current
   manifest, so their deletion is deferred until the next manifest is on
   disk — a crash mid-compaction then leaves only orphans (cleaned on
   resume), never a manifest pointing at deleted runs. *)
let rec reduce_fan_in eng ?defer lruns =
  if List.length lruns <= merge_fan_in then lruns
  else begin
    let batch, rest = take merge_fan_in lruns in
    let w = writer_make eng ~cap:eng.run_cap in
    merge_lruns eng batch ~emit:(writer_add w);
    let merged = writer_finish w in
    (match defer with
     | Some acc -> acc := List.concat batch @ !acc
     | None -> List.iter (delete_files eng) batch);
    reduce_fan_in eng ?defer (rest @ [ merged ])
  end

let merge_to_one eng ?defer lruns =
  match reduce_fan_in eng ?defer lruns with
  | [] -> []
  | [ one ] -> one
  | several ->
    let w = writer_make eng ~cap:eng.run_cap in
    merge_lruns eng several ~emit:(writer_add w);
    let merged = writer_finish w in
    (match defer with
     | Some acc -> acc := List.concat several @ !acc
     | None -> List.iter (delete_files eng) several);
    merged

(* -- manifest -----------------------------------------------------------

   One per-level checkpoint (tag "extmem/manifest"), atomically replaced
   after each completed level: the resume key, every counter, the visited
   and frontier lrun file lists, and the outcome table. No mid-level
   manifests exist, so a resume always restarts at the last complete level
   and replays deterministically — bit-identical to an uninterrupted run. *)

let write_manifest eng =
  (* a named kill-at-a-seam drill point: chaos plans can kill the run at
     the exact instant before a level commits, proving resume replays the
     level rather than trusting half-committed state *)
  Memrel_prob.Faultio.crash_site "extmem/manifest";
  let b = Buffer.create 4096 in
  let str s =
    add_uvarint b (String.length s);
    Buffer.add_string b s
  in
  str eng.resume_key;
  List.iter (add_uvarint b)
    [
      eng.file_seq; eng.level; eng.deepest; eng.expanded; eng.terminals; eng.transitions;
      eng.dedup_hits; eng.frontier_states; eng.max_level_states; eng.por_ample_states;
      eng.por_pruned; eng.spill_runs; eng.spill_bytes; eng.spill_generations;
      eng.bloom_probes; eng.bloom_hits; eng.bloom_fp; eng.compactions;
    ];
  let lrun l =
    add_uvarint b (List.length l);
    List.iter str l
  in
  add_uvarint b (List.length eng.visited);
  List.iter lrun eng.visited;
  lrun eng.frontier;
  let outcomes =
    List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) eng.outcome_counts [])
  in
  str (Marshal.to_string outcomes []);
  match
    Snapshot.write ~file:(Filename.concat eng.dir manifest_file) ~tag:manifest_tag
      (Buffer.contents b)
  with
  | Ok () -> ()
  | Error e -> spill_error "cannot write manifest: %s" (Snapshot.error_to_string e)

let load_manifest eng =
  let path = Filename.concat eng.dir manifest_file in
  if not (Sys.file_exists path) then
    spill_error "no manifest to resume from in %s" eng.dir;
  match Snapshot.read ~file:path ~tag:manifest_tag with
  | Error e -> spill_error "manifest: %s" (Snapshot.error_to_string e)
  | Ok payload ->
    let c = cursor ~ctx:"manifest" payload in
    let found_key = cur_string c in
    if not (String.equal found_key eng.resume_key) then
      spill_error
        "spill directory %s belongs to a different enumeration (resume key %S, expected %S)"
        eng.dir found_key eng.resume_key;
    eng.file_seq <- cur_uvarint c;
    eng.level <- cur_uvarint c;
    eng.deepest <- cur_uvarint c;
    eng.expanded <- cur_uvarint c;
    eng.terminals <- cur_uvarint c;
    eng.transitions <- cur_uvarint c;
    eng.dedup_hits <- cur_uvarint c;
    eng.frontier_states <- cur_uvarint c;
    eng.max_level_states <- cur_uvarint c;
    eng.por_ample_states <- cur_uvarint c;
    eng.por_pruned <- cur_uvarint c;
    eng.spill_runs <- cur_uvarint c;
    eng.spill_bytes <- cur_uvarint c;
    eng.spill_generations <- cur_uvarint c;
    eng.bloom_probes <- cur_uvarint c;
    eng.bloom_hits <- cur_uvarint c;
    eng.bloom_fp <- cur_uvarint c;
    eng.compactions <- cur_uvarint c;
    let lrun () =
      let n = cur_uvarint c in
      List.init n (fun _ -> cur_string c)
    in
    let nvisited = cur_uvarint c in
    eng.visited <- List.init nvisited (fun _ -> lrun ());
    eng.frontier <- lrun ();
    let blob = cur_string c in
    if c.p <> String.length payload then spill_error "manifest: trailing bytes";
    let outcomes =
      try (Marshal.from_string blob 0 : ('a * int) list)
      with _ -> spill_error "manifest: corrupt outcome table"
    in
    Hashtbl.reset eng.outcome_counts;
    List.iter (fun (o, n) -> Hashtbl.replace eng.outcome_counts o n) outcomes

let clean_dir eng ~keep =
  let keep_set = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace keep_set f ()) keep;
  match Sys.readdir eng.dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun f ->
        if
          (Filename.check_suffix f ".run" || Filename.check_suffix f ".tmp"
          || String.equal f manifest_file)
          && not (Hashtbl.mem keep_set f)
        then try Sys.remove (Filename.concat eng.dir f) with Sys_error _ -> ())
      entries

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* -- level expansion ----------------------------------------------------

   Every transition executes one instruction or drains one buffer entry,
   so each state sits at exactly one BFS depth: levels partition the state
   space, and the level-synchronized traversal expands each state exactly
   once — the same reduced graph as the in-RAM worklist (the POR choice is
   a per-state function; see Enumerate.expand). *)

exception Stop of Budget.cause

let budget_check eng budget =
  match budget with
  | None -> None
  | Some b -> (
    match Budget.check b with
    | Some Budget.Memory when eng.gc_grace_level <> eng.level ->
      (* a watermark trip may be transient garbage: compact the heap once
         per level and re-check before declaring the budget exhausted
         (the watermark reads Gc heap_words, which full_major alone never
         lowers; Gc.compact shrinks it where the runtime supports heap
         compaction, and elsewhere — OCaml 5.0/5.1 — still frees every
         dead block for reuse, keeping heap_words at the live peak instead
         of compounding per level) *)
      eng.gc_grace_level <- eng.level;
      Gc.compact ();
      Budget.check b
    | r -> r)

let expand_level eng ~observe ~max_states ~budget =
  eng.deepest <- eng.level;
  let cand_lruns = ref [] in
  let cand = ref [] and cand_bytes = ref 0 and cand_total = ref 0 in
  let spill ~forced =
    if !cand <> [] then begin
      if forced then eng.spill_generations <- eng.spill_generations + 1;
      let w = writer_make eng ~cap:max_int in
      List.iter (writer_add w) (List.sort_uniq String.compare !cand);
      cand_lruns := writer_finish w :: !cand_lruns;
      cand := [];
      cand_bytes := 0
    end
  in
  let r = reader_open eng eng.frontier in
  let rec go () =
    match reader_next r with
    | None -> ()
    | Some key ->
      if eng.expanded >= max_states then raise (Stop Budget.Work);
      (match budget_check eng budget with
       | Some cause -> raise (Stop cause)
       | None -> ( match budget with None -> () | Some b -> Budget.spend b 1));
      eng.expanded <- eng.expanded + 1;
      let st =
        try State.decode eng.decoder key
        with Invalid_argument _ -> spill_error "corrupt state key in spill run"
      in
      let succs, pruned = Enumerate.expand ~por:eng.por eng.discipline st in
      if pruned > 0 then begin
        eng.por_ample_states <- eng.por_ample_states + 1;
        eng.por_pruned <- eng.por_pruned + pruned
      end;
      (match succs with
       | [] ->
         eng.terminals <- eng.terminals + 1;
         let o = observe st in
         Hashtbl.replace eng.outcome_counts o
           (1 + Option.value ~default:0 (Hashtbl.find_opt eng.outcome_counts o))
       | ts ->
         List.iter
           (fun (_, st') ->
             eng.transitions <- eng.transitions + 1;
             State.pack eng.packer st';
             let k = State.packed_string eng.packer in
             cand := k :: !cand;
             incr cand_total;
             cand_bytes := !cand_bytes + String.length k + 16;
             if !cand_bytes >= eng.run_cap then spill ~forced:true)
           ts);
      go ()
  in
  go ();
  spill ~forced:false;
  (List.rev !cand_lruns, !cand_total)

(* resolve a sorted batch of bloom-positive keys against one visited lrun
   (two-pointer scan); keys actually present are recorded in [seen] *)
let resolve_against eng lrun batch seen =
  let n = Array.length batch in
  if n > 0 then begin
    let r = reader_open eng lrun in
    let i = ref 0 in
    let rec go () =
      match reader_next r with
      | None -> ()
      | Some k ->
        while !i < n && String.compare batch.(!i) k < 0 do
          incr i
        done;
        if !i < n then begin
          if String.equal batch.(!i) k then begin
            Hashtbl.replace seen batch.(!i) ();
            incr i
          end;
          go ()
        end
    in
    go ()
  end

(* duplicate detection for one level: merge the candidate runs (collapsing
   in-level duplicates), screen each distinct key through the bloom filter,
   and resolve the positives against the visited runs in batches. When no
   key was actually seen before (the common case: levels partition the
   state space, so cross-level duplicates are impossible here and every
   bloom hit is a false positive) the pending run becomes the next frontier
   as-is; otherwise it is rewritten without the seen keys. *)
let dedup_level eng cand_lruns cand_total =
  let pending = writer_make eng ~cap:eng.run_cap in
  let unique = ref 0 in
  let hits = ref [] and hits_bytes = ref 0 and hits_level = ref 0 in
  let seen = Hashtbl.create 16 in
  let resolve () =
    if !hits <> [] then begin
      let batch = Array.of_list (List.rev !hits) in
      List.iter (fun lrun -> resolve_against eng lrun batch seen) eng.visited;
      hits := [];
      hits_bytes := 0
    end
  in
  let lruns = reduce_fan_in eng cand_lruns in
  if lruns <> [] then
    merge_lruns eng lruns ~emit:(fun k ->
        incr unique;
        eng.bloom_probes <- eng.bloom_probes + 1;
        if bloom_member eng k then begin
          eng.bloom_hits <- eng.bloom_hits + 1;
          incr hits_level;
          hits := k :: !hits;
          hits_bytes := !hits_bytes + String.length k + 16;
          if !hits_bytes >= eng.run_cap then resolve ()
        end;
        bloom_insert eng k;
        writer_add pending k);
  resolve ();
  let pending_files = writer_finish pending in
  let seen_n = Hashtbl.length seen in
  eng.bloom_fp <- eng.bloom_fp + (!hits_level - seen_n);
  (* every duplicate drop — intra-batch sort_uniq, the merge collapse, and
     the visited probe — lands in this one formula *)
  eng.dedup_hits <- eng.dedup_hits + (cand_total - !unique) + seen_n;
  let new_states = !unique - seen_n in
  let next_frontier =
    if seen_n = 0 then pending_files
    else begin
      let w = writer_make eng ~cap:eng.run_cap in
      let r = reader_open eng pending_files in
      let rec go () =
        match reader_next r with
        | None -> ()
        | Some k ->
          if not (Hashtbl.mem seen k) then writer_add w k;
          go ()
      in
      go ();
      let files = writer_finish w in
      delete_files eng pending_files;
      files
    end
  in
  List.iter (delete_files eng) lruns;
  eng.frontier_states <- new_states;
  eng.level <- eng.level + 1;
  if new_states = 0 then begin
    delete_files eng next_frontier;
    eng.frontier <- []
  end
  else begin
    eng.frontier <- next_frontier;
    eng.visited <- next_frontier :: eng.visited;
    if new_states > eng.max_level_states then eng.max_level_states <- new_states
  end;
  new_states

let maybe_compact eng =
  match eng.visited with
  | front :: rest when List.length rest > compact_threshold ->
    eng.compactions <- eng.compactions + 1;
    let defer = ref [] in
    let merged = merge_to_one eng ~defer rest in
    eng.visited <- [ front; merged ];
    !defer
  | _ -> []

(* -- driver ------------------------------------------------------------- *)

let default_mem_budget = 64 * 1024 * 1024

let create_eng ~spill_dir ~resume_key ~mem_budget_bytes ~por ~root discipline =
  let mem_budget = max 65536 mem_budget_bytes in
  let bloom_bytes = max 4096 (min (mem_budget / 4) (1 lsl 28)) in
  {
    dir = spill_dir;
    resume_key;
    run_cap = max 4096 (mem_budget / 8);
    bloom = Bytes.make bloom_bytes '\000';
    bloom_bits = bloom_bytes * 8;
    decoder = State.decoder root;
    packer = State.packer ();
    discipline;
    por;
    outcome_counts = Hashtbl.create 64;
    visited = [];
    frontier = [];
    file_seq = 0;
    level = 0;
    deepest = 0;
    expanded = 0;
    terminals = 0;
    transitions = 0;
    dedup_hits = 0;
    frontier_states = 0;
    max_level_states = 0;
    por_ample_states = 0;
    por_pruned = 0;
    spill_runs = 0;
    spill_bytes = 0;
    spill_generations = 0;
    bloom_probes = 0;
    bloom_hits = 0;
    bloom_fp = 0;
    compactions = 0;
    gc_grace_level = -1;
    resumed_at = None;
  }

let init_fresh eng root =
  mkdir_p eng.dir;
  clean_dir eng ~keep:[];
  let root_key = State.packed_key root in
  bloom_insert eng root_key;
  let w = writer_make eng ~cap:eng.run_cap in
  writer_add w root_key;
  let lrun = writer_finish w in
  eng.frontier <- lrun;
  eng.visited <- [ lrun ];
  eng.frontier_states <- 1;
  eng.max_level_states <- 1;
  write_manifest eng

let init_resume eng =
  load_manifest eng;
  (* rebuild the bloom filter by streaming every visited run — this also
     CRC-validates each file, so truncated or corrupt spill state surfaces
     here as a typed Spill_error instead of a silently wrong resume *)
  let total = ref 0 in
  List.iter
    (fun lrun ->
      let r = reader_open eng lrun in
      let rec go () =
        match reader_next r with
        | None -> ()
        | Some k ->
          bloom_insert eng k;
          incr total;
          go ()
      in
      go ())
    eng.visited;
  if !total <> eng.expanded + eng.frontier_states then
    spill_error "inconsistent spill directory: %d visited keys on disk, manifest expects %d"
      !total
      (eng.expanded + eng.frontier_states);
  clean_dir eng ~keep:(manifest_file :: List.concat (eng.frontier :: eng.visited));
  eng.resumed_at <- Some eng.level

let outcomes ?(max_states = max_int) ?(por = false) ?budget
    ?(mem_budget_bytes = default_mem_budget) ?(resume = false) ~spill_dir ~resume_key
    discipline root ~observe =
  let eng = create_eng ~spill_dir ~resume_key ~mem_budget_bytes ~por ~root discipline in
  let t0 = Unix.gettimeofday () in
  if resume then init_resume eng else init_fresh eng root;
  let exhausted = ref None in
  (try
     while eng.frontier <> [] do
       let cand_lruns, cand_total = expand_level eng ~observe ~max_states ~budget in
       ignore (dedup_level eng cand_lruns cand_total);
       let deferred = maybe_compact eng in
       write_manifest eng;
       delete_files eng deferred;
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
            {
              Budget.cause;
              work_done = eng.expanded;
              elapsed_s = Unix.gettimeofday () -. t0;
            }));
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) eng.outcome_counts [] in
  let base =
    {
      Enumerate.outcomes = List.sort compare l;
      states_visited = eng.expanded;
      terminals = eng.terminals;
      stats =
        {
          Enumerate.elapsed_s;
          states_per_sec =
            (if elapsed_s > 0.0 then float_of_int eng.expanded /. elapsed_s else 0.0);
          transitions = eng.transitions;
          dedup_hits = eng.dedup_hits;
          max_depth = eng.deepest;
          max_frontier = eng.max_level_states;
          por_ample_states = eng.por_ample_states;
          por_pruned = eng.por_pruned;
        };
      exhausted = !exhausted;
    }
  in
  {
    base;
    ext =
      {
        levels = eng.level;
        spill_runs = eng.spill_runs;
        spill_bytes = eng.spill_bytes;
        spill_generations = eng.spill_generations;
        bloom_probes = eng.bloom_probes;
        bloom_hits = eng.bloom_hits;
        bloom_false_positives = eng.bloom_fp;
        compactions = eng.compactions;
        peak_level_states = eng.max_level_states;
        resumed_at_level = eng.resumed_at;
      };
  }

let can_resume dir = Sys.file_exists (Filename.concat dir manifest_file)

let remove_spill_dir dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> ()
  | entries ->
    Array.iter
      (fun f ->
        if
          Filename.check_suffix f ".run" || Filename.check_suffix f ".tmp"
          || String.equal f manifest_file
        then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      entries;
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())
