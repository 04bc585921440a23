type stats = {
  elapsed_s : float;
  states_per_sec : float;
  transitions : int;
  dedup_hits : int;
  max_depth : int;
  max_frontier : int;
  por_ample_states : int;
  por_pruned : int;
}

type 'a result = {
  outcomes : ('a * int) list;
  states_visited : int;
  terminals : int;
  stats : stats;
  exhausted : Memrel_prob.Budget.exhaustion option;
}

(* -- partial-order reduction (ample sets) ------------------------------

   At each state we try to pick ONE thread and explore only its enabled
   transitions. The choice is sound (an ample/persistent set) when every
   enabled transition of the chosen thread is independent — now and along
   any future execution — of everything the OTHER threads can ever do.
   Because a thread's enabledness depends only on its own context, and the
   shared locations a thread can still touch only shrink over time (the
   "remaining footprint": locations of unexecuted instructions plus
   buffered stores), a static check against the other threads' current
   remaining footprints suffices. The transition graph is acyclic (each
   step either executes an instruction or drains a buffer entry), so
   persistent sets preserve every reachable terminal state — hence the
   exact outcome sets and terminal counts. See DESIGN.md §8. *)

type effect_ = Local | Read of int | Write of int

(* the shared-memory effect of one enabled transition. Under the buffered
   disciplines (TSO/PSO) executing a store only appends to the thread's own
   buffer — the globally visible write is the later Flush. *)
let transition_effect ~buffered prog = function
  | Semantics.Flush { loc; _ } -> Write loc
  | Semantics.Exec { index; _ } ->
    (match prog.(index) with
     | Instr.Binop _ | Instr.Fence _ -> Local
     | Instr.Load { loc; _ } -> Read loc
     | Instr.Store { loc; _ } -> if buffered then Local else Write loc
     | Instr.Rmw { loc; _ } -> Write loc)

(* footprints are bitmasks over locations; fall back to no reduction when a
   location does not fit the word *)
exception Unmaskable

let max_mask_loc = Sys.int_size - 2

let thread_footprint th =
  let all = ref 0 and writes = ref 0 in
  let add m l =
    if l < 0 || l > max_mask_loc then raise Unmaskable else m := !m lor (1 lsl l)
  in
  Array.iteri
    (fun i ins ->
      if not (State.is_executed th i) then begin
        match Instr.loc_accessed ins with
        | None -> ()
        | Some l ->
          add all l;
          if Instr.is_store ins then add writes l
      end)
    th.State.prog;
  List.iter (fun (l, _) -> add all l; add writes l) th.State.fifo;
  Array.iteri (fun l q -> if q <> [] then (add all l; add writes l)) th.State.perloc;
  (!all, !writes)

(* -- the label table of one state space ---------------------------------

   Semantics' codes, each with its shared-memory effect (for POR) and
   [dep.(c)]: the codes that do not commute with c, the same thread's and
   those accessing the same location where one of the two accesses writes.
   A sleep set is a mask over codes, so that the labels walked after c are
   the set bits above it. Every sleep set is 0 under POR (it would prune
   states the ample sets keep, whose counters are pinned) and past 61
   codes: there [dep] is -1 everywhere. *)

type space = {
  codes : Semantics.codes;
  por : bool;
  effect : effect_ array;  (* by code, as are [dep] and [sleep_bit] *)
  dep : int array;
  sleep_bit : int array;  (* the label's bit in Extmem's runs *)
}

let space ~por discipline root =
  let codes = Semantics.codes discipline root and buffered = Semantics.buffered discipline in
  let labels = Array.init (Semantics.code_count codes) (Semantics.label codes) in
  let thread = function Semantics.Exec { thread; _ } | Semantics.Flush { thread; _ } -> thread in
  let prog l = root.State.threads.(thread l).State.prog in
  let effect = Array.map (fun l -> transition_effect ~buffered (prog l) l) labels in
  let conflict a b =
    thread labels.(a) = thread labels.(b)
    || match (effect.(a), effect.(b)) with
       | (Read x | Write x), Write y | Write x, Read y -> x = y
       | _ -> false
  in
  let locs = if buffered then Array.length root.State.mem else 0 and n = Array.length labels in
  let sleep_bit c = function
    | Semantics.Exec _ -> c
    | Semantics.Flush { thread; loc } -> Semantics.first_code codes (thread + 1) - locs + loc
  in
  let dep a = List.fold_left (fun m b -> if conflict a b then m lor (1 lsl b) else m) 0 in
  let dep a = if por || n > Sys.int_size - 2 then -1 else dep a (List.init n Fun.id) in
  { codes; por; effect; dep = Array.init n dep; sleep_bit = Array.mapi sleep_bit labels }

let codes sp = sp.codes
let sleep_bytes sp = if Array.mem (-1) sp.dep then 0 else (Array.length sp.dep + 7) / 8

(* under POR, keep in [bits] only the first thread whose enabled labels are
   all independent of every other thread's remaining footprint; returns
   the number of labels dropped *)
let select sp st bits =
  match if sp.por then Array.map thread_footprint st.State.threads else [||] with
  | exception Unmaskable -> 0
  | fp ->
    let n = Array.length fp and first = Semantics.first_code sp.codes in
    let rec go k =
      if k >= n then 0
      else begin
        let all = ref 0 and writes = ref 0 and any = ref false and ample = ref true in
        for j = 0 to n - 1 do
          if j <> k then begin
            all := !all lor fst fp.(j);
            writes := !writes lor snd fp.(j)
          end
        done;
        for c = first k to first (k + 1) - 1 do
          if Semantics.is_set bits c then begin
            any := true;
            match sp.effect.(c) with
            | Local -> ()
            | Read l -> if !writes land (1 lsl l) <> 0 then ample := false
            | Write l -> if !all land (1 lsl l) <> 0 then ample := false
          end
        done;
        if not (!any && !ample) then go (k + 1)
        else begin
          let total = Semantics.count bits in
          Semantics.clear_range bits 0 (first k);
          Semantics.clear_range bits (first (k + 1)) (Semantics.code_count sp.codes);
          total - Semantics.count bits
        end
      end
    in
    go 0

(* -- shared successor expansion ----------------------------------------

   One expansion for both engines (the in-RAM worklist below and the
   external-memory BFS in [Extmem]): the POR choice is a deterministic
   function of the state alone, so the two engines explore the same reduced
   graph regardless of traversal order. *)

let expand ~por discipline st =
  if not por then (Semantics.transitions discipline st, 0)
  else begin
    let sp = space ~por discipline st in
    let bits = Semantics.bitset sp.codes in
    Semantics.state_bits sp.codes bits st;
    let pruned = select sp st bits in
    ( List.map (fun l -> (l, Semantics.step discipline st l)) (Semantics.labels sp.codes bits),
      pruned )
  end

(* each code set in [bits], lowest first: asleep, or handed to [f] with
   its child's sleep set. Only word 0 meets a non-zero sleep set or [dep]
   mask: past one word of codes both are 0 and -1. *)
let iter_awake sp ~sleep bits f parent =
  let asleep = ref 0 in
  for w = 0 to Array.length bits - 1 do
    let x = ref (Array.unsafe_get bits w) in
    while !x <> 0 do
      let low = !x land - !x in
      x := !x lxor low;
      let c = (w * Semantics.word_bits) + Array.unsafe_get Semantics.bit_index (low mod 67) in
      if sleep land low <> 0 then incr asleep
      else f parent c ((sleep lor !x) land lnot sp.dep.(c))
    done
  done;
  !asleep

(* Extmem's runs number a sleep set's labels as they always have: thread
   by thread, flushes lowest location first. That is the codes with each
   thread's flushes reversed, a renumbering that is its own inverse. *)
let renumber sp m =
  let r = ref 0 and m = ref m in
  while !m <> 0 do
    let low = !m land - !m in
    m := !m lxor low;
    r := !r lor (1 lsl sp.sleep_bit.(Semantics.bit_index.(low mod 67)))
  done;
  !r

(* -- iterative exploration --------------------------------------------- *)

(* a state on the worklist, with its sleep set, its packed key, the key's
   section ends, and its enabled codes: word 0, then the others *)
type entry = {
  st : State.t; depth : int; sleep : int; key : Bytes.t; ends : int array;
  en : int; en_hi : int array }

let outcomes ?(max_states = 2_000_000) ?(por = false) ?budget discipline st ~observe =
  (* one packer and one arena per call: keys are packed into the scratch
     bytes and probed from there, and copied only when new; each state on
     the worklist keeps a copy of its key and section ends, and its
     successors are spliced from them (State.splice) *)
  let packer = State.packer () in
  let visited = Arena_set.create () in
  let outcome_counts = Hashtbl.create 64 in
  let terminals = ref 0 in
  let expanded = ref 0 in
  let transitions = ref 0 and dedup_hits = ref 0 in
  let max_depth = ref 0 and max_frontier = ref 0 in
  let por_ample_states = ref 0 and por_pruned = ref 0 in
  let t0 = Unix.gettimeofday () in
  (* explicit worklist: depth bounded only by the heap, never the OCaml
     stack. States are marked visited when pushed (for deduplication) and
     counted — for the cap, the budget and the stats — when popped and
     expanded: a state sitting on the stack is in flight, not yet visited,
     so the cap can never fire while unexplored unique states would be
     abandoned below it. *)
  let stack = Stack.create () in
  (* every stop — state cap, deadline, work cap, memory watermark — unwinds
     through one path and yields a partial result *)
  let exception Stop of Memrel_prob.Budget.cause in
  let sp = space ~por discipline st in
  (* [walk]: the popped entry's codes to take; [bits]: a child's codes *)
  let walk = Semantics.bitset sp.codes and bits = Semantics.bitset sp.codes in
  let hi = Array.length bits - 1 in
  (* admit [st], whose key the packer holds and whose codes [bits] *)
  let visit st depth sleep =
    let key = State.packed_bytes packer and len = State.packed_length packer in
    if Arena_set.add visited key len then begin
      let ends = Array.copy (State.packed_ends packer) in
      let en_hi = if hi = 0 then [||] else Array.sub bits 1 hi in
      Stack.push { st; depth; sleep; key = Bytes.sub key 0 len; ends; en = bits.(0); en_hi } stack
    end
    else incr dedup_hits
  in
  (* build, splice and admit the successor along code [c] of the expanded
     entry [e], with sleep set [z]: its codes are [e]'s with the moved
     thread's redone *)
  let push_child e c z =
    let l = Semantics.label sp.codes c in
    let st' = Semantics.step discipline e.st l in
    State.splice packer ~parent:e.st e.key e.ends st';
    bits.(0) <- e.en;
    if hi > 0 then Array.blit e.en_hi 0 bits 1 hi;
    (match l with
     | Semantics.Exec { thread; _ } | Semantics.Flush { thread; _ } ->
       Semantics.thread_bits sp.codes bits st' thread);
    visit st' (e.depth + 1) z
  in
  let exhausted = ref None in
  (try
     State.pack packer st;
     Semantics.state_bits sp.codes bits st;
     visit st 0 0;
     while not (Stack.is_empty stack) do
       let e = Stack.pop stack in
       if !expanded >= max_states then raise (Stop Memrel_prob.Budget.Work);
       (match budget with
        | None -> ()
        | Some b -> (
          match Memrel_prob.Budget.check b with
          | Some cause -> raise (Stop cause)
          | None -> Memrel_prob.Budget.spend b 1));
       incr expanded;
       if e.depth > !max_depth then max_depth := e.depth;
       walk.(0) <- e.en;
       if hi > 0 then Array.blit e.en_hi 0 walk 1 hi;
       let pruned = select sp e.st walk in
       if pruned > 0 then begin
         incr por_ample_states;
         por_pruned := !por_pruned + pruned
       end;
       match Semantics.count walk with
       | 0 ->
         incr terminals;
         let o = observe e.st in
         Hashtbl.replace outcome_counts o
           (1 + Option.value ~default:0 (Hashtbl.find_opt outcome_counts o))
       | n ->
         (* the awake successors are pushed in code order, so the later
            labels are explored first (the stack is LIFO). A sleeping
            label's successor is already admitted (DESIGN.md §8): it
            counts as a dedup hit and is never built. *)
         transitions := !transitions + n;
         dedup_hits := !dedup_hits + iter_awake sp ~sleep:e.sleep walk push_child e;
         let frontier = Stack.length stack in
         if frontier > !max_frontier then max_frontier := frontier
     done
   with Stop cause ->
     exhausted :=
       Some
         (match budget with
          | Some b -> Memrel_prob.Budget.exhaustion b cause
          | None ->
            (* the state cap tripped without a budget: synthesize the same
               record, counting expanded states as work *)
            {
              Memrel_prob.Budget.cause;
              work_done = !expanded;
              elapsed_s = Unix.gettimeofday () -. t0;
            }));
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let states_visited = !expanded in
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) outcome_counts [] in
  {
    outcomes = List.sort compare l;
    states_visited;
    terminals = !terminals;
    stats =
      {
        elapsed_s;
        states_per_sec =
          (if elapsed_s > 0.0 then float_of_int states_visited /. elapsed_s else 0.0);
        transitions = !transitions;
        dedup_hits = !dedup_hits;
        max_depth = !max_depth;
        max_frontier = !max_frontier;
        por_ample_states = !por_ample_states;
        por_pruned = !por_pruned;
      };
    exhausted = !exhausted;
  }

let outcome_set r = List.map fst r.outcomes
