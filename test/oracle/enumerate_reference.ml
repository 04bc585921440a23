(* The in-RAM enumerator as a plain depth-first worklist, without sleep
   sets or label codes: every successor of an expanded state is built,
   spliced and probed, its labels listed by the list rules below (the
   ample-set reduction, under [~por], is [Enumerate.expand]'s).
   [Enumerate.outcomes] must match it on everything it reports: outcomes
   with per-terminal counts, states, transitions, dedup hits, max depth and
   max frontier (the sleep sets skip only successors this loop finds
   already visited, in the same order). *)

open Memrel_machine
open Enumerate

(* -- the enabled labels, as lists ------------------------------------------

   The readiness rules as the semantics listed them before it kept
   enabled sets as bitsets over label codes: every thread's labels rebuilt
   at every state, WO's window hazards re-evaluated pair by pair.
   [Semantics.enabled] and [thread_enabled] must give these lists, and
   [outcomes] below expands through them. *)

let drained discipline th =
  match discipline with
  | Semantics.Pso -> State.perloc_empty th
  | Semantics.Sc | Semantics.Tso | Semantics.Wo _ -> th.State.fifo = []

(* under the buffered disciplines a locked instruction (RMW) and a
   Full/Release fence wait for an empty buffer *)
let exec_ready discipline th i =
  match discipline with
  | Semantics.Sc | Semantics.Wo _ -> true
  | Semantics.Tso | Semantics.Pso -> (
    match th.State.prog.(i) with
    | Instr.Rmw _ | Instr.Fence (Memrel_memmodel.Fence.Full | Memrel_memmodel.Fence.Release) ->
      drained discipline th
    | _ -> true)

(* TSO/PSO: thread [k]'s flushes consed onto [acc], PSO's highest location
   first *)
let add_flushes discipline th k acc =
  match discipline with
  | Semantics.Sc | Semantics.Wo _ -> acc
  | Semantics.Tso -> (
    match th.State.fifo with
    | [] -> acc
    | (loc, _) :: _ -> Semantics.Flush { thread = k; loc } :: acc)
  | Semantics.Pso ->
    let acc = ref acc in
    Array.iteri
      (fun loc q -> if q <> [] then acc := Semantics.Flush { thread = k; loc } :: !acc)
      th.State.perloc;
    !acc

(* ["T0.exec[1]"], ["T1.flush[0]"]: how tests print labels and traces *)
let label_to_string = function
  | Semantics.Exec { thread; index } -> Printf.sprintf "T%d.exec[%d]" thread index
  | Semantics.Flush { thread; loc } -> Printf.sprintf "T%d.flush[%d]" thread loc

(* lowest unexecuted instruction index ([Array.length prog] when done) *)
let next_unexecuted th =
  let n = Array.length th.State.prog in
  let rec go i = if i >= n || not (State.is_executed th i) then i else go (i + 1) in
  go 0

(* thread [k]'s enabled labels, in order, consed onto [acc]: its next
   instruction (SC, TSO, PSO) or its window's ready instructions in index
   order (WO), then its flushes *)
let add_thread_enabled discipline st k acc =
  let th = st.State.threads.(k) in
  let n = Array.length th.State.prog in
  let pc = next_unexecuted th in
  match discipline with
  | Semantics.Sc | Semantics.Tso | Semantics.Pso ->
    let acc = add_flushes discipline th k acc in
    if pc < n && exec_ready discipline th pc then Semantics.Exec { thread = k; index = pc } :: acc
    else acc
  | Semantics.Wo { window } ->
    let acc = ref acc in
    for i = min (n - 1) (pc + window - 1) downto pc do
      if not (State.is_executed th i) then begin
        let ready = ref true in
        for j = 0 to i - 1 do
          if (not (State.is_executed th j)) && Semantics.conflicts th.State.prog j i then
            ready := false
        done;
        if !ready then acc := Semantics.Exec { thread = k; index = i } :: !acc
      end
    done;
    !acc

let thread_enabled discipline st k = add_thread_enabled discipline st k []

let enabled discipline st =
  let acc = ref [] in
  for k = Array.length st.State.threads - 1 downto 0 do
    acc := add_thread_enabled discipline st k !acc
  done;
  !acc

(* -- the plain worklist ---------------------------------------------------- *)

(* a state on the worklist, with its packed key and the key's section ends *)
type entry = { st : State.t; depth : int; key : Bytes.t; ends : int array }

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
  (* admit [st], whose key the packer holds *)
  let visit st depth =
    let key = State.packed_bytes packer and len = State.packed_length packer in
    if Arena_set.add visited key len then
      Stack.push
        { st; depth; key = Bytes.sub key 0 len; ends = Array.copy (State.packed_ends packer) }
        stack
    else incr dedup_hits
  in
  let successors st =
    let ts, pruned =
      if por then expand ~por discipline st
      else (List.map (fun l -> (l, Semantics.step discipline st l)) (enabled discipline st), 0)
    in
    if pruned > 0 then begin
      incr por_ample_states;
      por_pruned := !por_pruned + pruned
    end;
    ts
  in
  let exhausted = ref None in
  (try
     State.pack packer st;
     visit st 0;
     while not (Stack.is_empty stack) do
       let { st; depth; key; ends } = Stack.pop stack in
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
             State.splice packer ~parent:st key ends st';
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

(* the size of [st]'s whole space under [discipline]: the machine tests
   cap the engine under test at it, so an engine fault that makes a space
   unbounded stops there instead of at the default 2,000,000 states *)
let states discipline st = (outcomes discipline st ~observe:ignore).Enumerate.states_visited

(* the same for a litmus test under a model family, as
   [Litmus.run_exhaustive] resolves them *)
let litmus_states ?window (t : Litmus.t) family =
  states (Semantics.of_model ?window family) (Litmus.initial_state t)

(* [Litmus.run_exhaustive] capped at [litmus_states] *)
let run_capped ?window t family =
  Litmus.run_exhaustive ?window ~max_states:(litmus_states ?window t family) t family

(* A seeded small program for the differential test: 2-4 threads of 1-4
   instructions each, drawn from loads, stores, RMWs, binops and the three
   fences over [locs] (1-3) locations and three registers. *)
let random_programs rng =
  let int n = Random.State.int rng n in
  let locs = 1 + int 3 in
  let operand () = if int 2 = 0 then Instr.Reg (int 3) else Instr.Imm (1 + int 3) in
  let binop () = match int 3 with 0 -> Instr.Add | 1 -> Instr.Sub | _ -> Instr.Mul in
  let instr () =
    match int 7 with
    | 0 -> Instr.load ~reg:(int 3) ~loc:(int locs)
    | 1 -> Instr.store ~loc:(int locs) ~src:(operand ())
    | 2 -> Instr.rmw ~reg:(int 3) ~loc:(int locs) (binop ()) (operand ())
    | 3 -> Instr.binop ~dst:(int 3) (binop ()) (operand ()) (operand ())
    | 4 -> Instr.fence Memrel_memmodel.Fence.Full
    | 5 -> Instr.fence Memrel_memmodel.Fence.Acquire
    | _ -> Instr.fence Memrel_memmodel.Fence.Release
  in
  List.init (2 + int 3) (fun _ -> Array.init (1 + int 4) (fun _ -> instr ()))
