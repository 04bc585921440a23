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
let transition_effect ~buffered th = function
  | Semantics.Flush { loc; _ } -> Write loc
  | Semantics.Exec { index; _ } ->
    (match th.State.prog.(index) with
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

let select_ample ~buffered st per_thread =
  match Array.map thread_footprint st.State.threads with
  | exception Unmaskable -> None
  | fp ->
    let n = Array.length per_thread in
    let rec go k =
      if k >= n then None
      else if per_thread.(k) = [] then go (k + 1)
      else begin
        let others_all = ref 0 and others_writes = ref 0 in
        for j = 0 to n - 1 do
          if j <> k then begin
            others_all := !others_all lor fst fp.(j);
            others_writes := !others_writes lor snd fp.(j)
          end
        done;
        let th = st.State.threads.(k) in
        let independent (label, _) =
          match transition_effect ~buffered th label with
          | Local -> true
          | Read l -> !others_writes land (1 lsl l) = 0
          | Write l -> !others_all land (1 lsl l) = 0
        in
        if List.for_all independent per_thread.(k) then Some k else go (k + 1)
      end
    in
    go 0

(* -- shared successor expansion ----------------------------------------

   One expansion function for both engines (the in-RAM worklist below and
   the external-memory BFS in [Extmem]): the POR choice is a deterministic
   function of the state alone, so the two engines explore the same reduced
   graph regardless of traversal order. *)

let expand ~por discipline st =
  if not por then (Semantics.transitions discipline st, 0)
  else begin
    let per_thread =
      Array.init (Array.length st.State.threads) (Semantics.thread_transitions discipline st)
    in
    match select_ample ~buffered:(Semantics.buffered discipline) st per_thread with
    | Some k ->
      let total = Array.fold_left (fun acc l -> acc + List.length l) 0 per_thread in
      let chosen = per_thread.(k) in
      (chosen, total - List.length chosen)
    | None -> (Array.fold_right (fun l acc -> l @ acc) per_thread [], 0)
  end

(* -- iterative exploration --------------------------------------------- *)

let outcomes ?(max_states = 2_000_000) ?(por = false) ?budget discipline st ~observe =
  (* one packer and one arena per call: keys are packed into the scratch
     bytes and probed from there, and copied only when new *)
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
  let visit st depth =
    State.pack packer st;
    if Arena_set.add visited (State.packed_bytes packer) (State.packed_length packer) then
      Stack.push (st, depth) stack
    else incr dedup_hits
  in
  let successors st =
    let ts, pruned = expand ~por discipline st in
    if pruned > 0 then begin
      incr por_ample_states;
      por_pruned := !por_pruned + pruned
    end;
    ts
  in
  let exhausted = ref None in
  (try
     visit st 0;
     while not (Stack.is_empty stack) do
       let st, depth = Stack.pop stack in
       if !expanded >= max_states then raise (Stop Memrel_prob.Budget.Work);
       (match budget with
        | None -> ()
        | Some b -> (
          match Memrel_prob.Budget.check b with
          | Some cause -> raise (Stop cause)
          | None -> Memrel_prob.Budget.spend b 1));
       incr expanded;
       if depth > !max_depth then max_depth := depth;
       match successors st with
       | [] ->
         incr terminals;
         let o = observe st in
         Hashtbl.replace outcome_counts o
           (1 + Option.value ~default:0 (Hashtbl.find_opt outcome_counts o))
       | ts ->
         List.iter
           (fun (_, st') ->
             incr transitions;
             visit st' (depth + 1))
           ts;
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

let reachable_terminal_count ?max_states ?por discipline st =
  (outcomes ?max_states ?por discipline st ~observe:(fun s -> State.packed_key s)).terminals
