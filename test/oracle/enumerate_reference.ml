(* The in-RAM enumerator as a plain depth-first worklist, without sleep
   sets: every successor of an expanded state is built, spliced and probed.
   [Enumerate.outcomes] must match it on everything it reports: outcomes
   with per-terminal counts, states, transitions, dedup hits, max depth and
   max frontier (the sleep sets skip only successors this loop finds
   already visited, in the same order). *)

open Memrel_machine
open Enumerate

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
    let ts, pruned = expand ~por discipline st in
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
