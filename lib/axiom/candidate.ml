module IntMap = Map.Make (Int)
module Instr = Memrel_machine.Instr
module State = Memrel_machine.State

type t = {
  events : Event.t array;
  programs : Instr.t array array;
  initial_mem : (int * int) list;
  rf : int option array;
  co : (int * int list) list;
}

let initial_value c loc = Option.value ~default:0 (List.assoc_opt loc c.initial_mem)

let co_order c loc = Option.value ~default:[] (List.assoc_opt loc c.co)

(* coherence successors of write [w] at its location *)
let co_after c w =
  let rec tail = function
    | [] -> []
    | x :: rest -> if x = w then rest else tail rest
  in
  tail (co_order c c.events.(w).Event.loc)

let fr_targets c r =
  let succs =
    match c.rf.(r) with
    | Some w -> co_after c w
    | None -> co_order c c.events.(r).Event.loc
  in
  List.filter (fun w' -> w' <> r) succs

let apply_binop op a b =
  match op with Instr.Add -> a + b | Instr.Sub -> a - b | Instr.Mul -> a * b

(* Values are determined by rf alone: registers are thread-local dataflow,
   so once every load's rf source is fixed each value is forced. Resolution
   follows ACTUAL dependencies only — an operand walks back to its last
   register writer, a load to its rf source — never the whole program-order
   prefix: a store of an immediate must not depend on an unrelated earlier
   load, or independent cross-thread load/store pairs (LB-style) would look
   circular. Genuine value cycles are impossible in accepted candidates:
   they are in particular po-with-register-conflict / rf cycles, and every
   discipline's axioms contain those edges (TSO/PSO preserve R->W order;
   WO's conflicts include register hazards; rf is always constrained) — the
   [visiting] flag guards the invariant rather than relying on it. *)
type values = { read_v : int array; write_v : int array; regs : int IntMap.t array }

let compute c =
  let n = Array.length c.events in
  let read_memo = Array.make n None and write_memo = Array.make n None in
  let visiting = Array.make n false in
  let event_at = Hashtbl.create (2 * n) in
  Array.iter (fun (e : Event.t) -> Hashtbl.replace event_at (e.Event.thread, e.Event.index) e.Event.id) c.events;
  (* value of register [r] as seen by instruction [index] of [thread]:
     whatever its most recent program-order writer produced, 0 if none *)
  let rec reg_value thread r index =
    let prog = c.programs.(thread) in
    let rec last_writer j =
      if j < 0 then None
      else if Instr.writes_reg prog.(j) = Some r then Some j
      else last_writer (j - 1)
    in
    match last_writer (index - 1) with
    | None -> 0
    | Some j -> (
      match prog.(j) with
      | Instr.Load _ | Instr.Rmw _ -> read_value (Hashtbl.find event_at (thread, j))
      | Instr.Binop { op; a; b; _ } ->
        apply_binop op (operand_value thread a j) (operand_value thread b j)
      | Instr.Store _ | Instr.Fence _ -> assert false)
  and operand_value thread op index =
    match op with Instr.Imm i -> i | Instr.Reg r -> reg_value thread r index
  and read_value id =
    match read_memo.(id) with
    | Some v -> v
    | None ->
      let v =
        match c.rf.(id) with
        | None -> initial_value c c.events.(id).Event.loc
        | Some w -> write_value w
      in
      read_memo.(id) <- Some v;
      v
  and write_value id =
    match write_memo.(id) with
    | Some v -> v
    | None ->
      if visiting.(id) then failwith "Candidate.compute: value-dependency cycle";
      visiting.(id) <- true;
      let e = c.events.(id) in
      let v =
        match c.programs.(e.Event.thread).(e.Event.index) with
        | Instr.Store { src; _ } -> operand_value e.Event.thread src e.Event.index
        | Instr.Rmw { op; operand; _ } ->
          apply_binop op (read_value id) (operand_value e.Event.thread operand e.Event.index)
        | Instr.Load _ | Instr.Binop _ | Instr.Fence _ ->
          failwith "Candidate.compute: write event on a non-store instruction"
      in
      visiting.(id) <- false;
      write_memo.(id) <- Some v;
      v
  in
  let read_v = Array.make n 0 and write_v = Array.make n 0 in
  Array.iter
    (fun (e : Event.t) ->
      if Event.is_read e then read_v.(e.Event.id) <- read_value e.Event.id;
      if Event.is_write e then write_v.(e.Event.id) <- write_value e.Event.id)
    c.events;
  let regs =
    Array.mapi
      (fun thread prog ->
        let written = ref IntMap.empty in
        Array.iteri
          (fun _ ins ->
            match Instr.writes_reg ins with
            | Some r ->
              written := IntMap.add r (reg_value thread r (Array.length prog)) !written
            | None -> ())
          prog;
        !written)
      c.programs
  in
  { read_v; write_v; regs }

(* the terminal machine state this candidate denotes: memory holds each
   location's coherence-maximal write, registers the full program-order
   replay, buffers empty — exactly the shape [Enumerate]'s terminal states
   have, so one [observe] function serves both sides of the differential *)
let to_state c =
  let v = compute c in
  let st = State.init ~programs:(Array.to_list c.programs) ~initial_mem:c.initial_mem in
  let st =
    List.fold_left
      (fun st (loc, order) ->
        match List.rev order with [] -> st | last :: _ -> State.set_mem st loc v.write_v.(last))
      st c.co
  in
  let threads =
    Array.mapi
      (fun k th ->
        let th = IntMap.fold (fun r x th -> State.set_reg th r x) v.regs.(k) th in
        { th with State.executed = (1 lsl Array.length th.State.prog) - 1 })
      st.State.threads
  in
  { st with State.threads }

let outcome c ~observe = observe (to_state c)

let describe ?loc_name c =
  let v = compute c in
  let value_note (e : Event.t) =
    match e.Event.dir with
    | Event.R -> Printf.sprintf " = %d" v.read_v.(e.Event.id)
    | Event.W -> Printf.sprintf " := %d" v.write_v.(e.Event.id)
    | Event.U -> Printf.sprintf " = %d := %d" v.read_v.(e.Event.id) v.write_v.(e.Event.id)
  in
  let threads =
    List.mapi
      (fun k _ ->
        Array.to_list c.events
        |> List.filter (fun (e : Event.t) -> e.Event.thread = k)
        |> List.map (fun e -> Event.describe ?loc_name e ^ value_note e))
      (Array.to_list c.programs)
  in
  let lbl id = Event.label c.events.(id) in
  let edges = ref [] in
  Array.iter
    (fun (e : Event.t) ->
      if Event.is_read e then begin
        (match c.rf.(e.Event.id) with
        | Some w -> edges := ("rf", lbl w, lbl e.Event.id) :: !edges
        | None -> edges := ("rf", "init", lbl e.Event.id) :: !edges);
        List.iter (fun w' -> edges := ("fr", lbl e.Event.id, lbl w') :: !edges)
          (fr_targets c e.Event.id)
      end)
    c.events;
  List.iter
    (fun (_, order) ->
      let rec consecutive = function
        | a :: (b :: _ as rest) ->
          edges := ("co", lbl a, lbl b) :: !edges;
          consecutive rest
        | _ -> ()
      in
      consecutive order)
    c.co;
  Memrel_trace.Render.event_graph ~title:"candidate execution" ~threads
    ~edges:(List.rev !edges)
