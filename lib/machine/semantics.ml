module Fence = Memrel_memmodel.Fence
module Model = Memrel_memmodel.Model

type discipline = Sc | Tso | Pso | Wo of { window : int }

let of_model ?(window = 8) family =
  match family with
  | Model.Sequential_consistency -> Sc
  | Model.Total_store_order -> Tso
  | Model.Partial_store_order -> Pso
  | Model.Weak_ordering -> Wo { window }
  | Model.Custom -> invalid_arg "Semantics.of_model: no operational semantics for Custom"

type label = Exec of { thread : int; index : int } | Flush of { thread : int; loc : int }

let label_to_string = function
  | Exec { thread; index } -> Printf.sprintf "T%d.exec[%d]" thread index
  | Flush { thread; loc } -> Printf.sprintf "T%d.flush[%d]" thread loc

let eval th = function Instr.Reg r -> State.reg th r | Instr.Imm i -> i

let apply_binop op a b =
  match op with Instr.Add -> a + b | Instr.Sub -> a - b | Instr.Mul -> a * b

let mark th i = { th with State.executed = th.State.executed lor (1 lsl i) }

(* register hazards (RAW, WAR, WAW), same-location with a store, and the
   one-way fence orderings *)
let conflicts prog j i =
  let open Instr in
  let ij = prog.(j) and ii = prog.(i) in
  match (ij, ii) with
  | Fence Fence.Full, _ | _, Fence Fence.Full -> true
  | Fence Fence.Acquire, _ -> true (* acquire blocks everything later *)
  | _, Fence Fence.Acquire -> is_load ij (* acquire waits for earlier loads *)
  | Fence Fence.Release, _ -> is_store ii (* release blocks later stores *)
  | _, Fence Fence.Release -> true (* release waits for everything earlier *)
  | _ ->
    let reg_hazard =
      let reads_j = reads_regs ij and reads_i = reads_regs ii in
      let raw = match writes_reg ij with Some r -> List.mem r reads_i | None -> false in
      let war = match writes_reg ii with Some r -> List.mem r reads_j | None -> false in
      let waw =
        match (writes_reg ij, writes_reg ii) with Some a, Some b -> a = b | _ -> false
      in
      raw || war || waw
    in
    let mem_hazard =
      (* same-location accesses never reorder — including load/load, which
         read-read coherence requires (and footnote 2 of the paper assumes) *)
      match (loc_accessed ij, loc_accessed ii) with
      | Some a, Some b -> a = b
      | _ -> false
    in
    reg_hazard || mem_hazard

let drained ~pso th = if pso then State.perloc_empty th else th.State.fifo = []

(* execute instruction [i] of thread [k] under in-order buffered semantics;
   [buffered] selects TSO (fifo) or PSO (per-location) buffering. Returns
   None when the instruction is not currently executable (fence awaiting an
   empty buffer). *)
let exec_buffered ~pso st k i =
  let th = st.State.threads.(k) in
  let open Instr in
  match th.State.prog.(i) with
  | Binop { dst; op; a; b } ->
    let v = apply_binop op (eval th a) (eval th b) in
    Some (State.set_thread st k (mark (State.set_reg th dst v) i))
  | Load { reg; loc } ->
    let buffered =
      if pso then State.buffered_read_perloc th loc else State.buffered_read_fifo th loc
    in
    let v = match buffered with Some v -> v | None -> State.mem_read st loc in
    Some (State.set_thread st k (mark (State.set_reg th reg v) i))
  | Store { loc; src } ->
    let v = eval th src in
    let th =
      if pso then State.set_perloc_queue th loc (State.perloc_queue th loc @ [ v ])
      else { th with State.fifo = th.State.fifo @ [ (loc, v) ] }
    in
    Some (State.set_thread st k (mark th i))
  | Rmw { reg; loc; op; operand } ->
    (* locked instruction: only executable on an empty buffer, then an
       atomic read-modify-write straight against memory *)
    if drained ~pso th then begin
      let old_v = State.mem_read st loc in
      let new_v = apply_binop op old_v (eval th operand) in
      let st = State.set_mem st loc new_v in
      Some (State.set_thread st k (mark (State.set_reg th reg old_v) i))
    end
    else None
  | Fence (Fence.Full | Fence.Release) ->
    if drained ~pso th then Some (State.set_thread st k (mark th i)) else None
  | Fence Fence.Acquire -> Some (State.set_thread st k (mark th i))

let exec_direct st k i =
  let th = st.State.threads.(k) in
  let open Instr in
  match th.State.prog.(i) with
  | Binop { dst; op; a; b } ->
    let v = apply_binop op (eval th a) (eval th b) in
    State.set_thread st k (mark (State.set_reg th dst v) i)
  | Load { reg; loc } ->
    let v = State.mem_read st loc in
    State.set_thread st k (mark (State.set_reg th reg v) i)
  | Store { loc; src } ->
    let v = eval th src in
    State.set_thread (State.set_mem st loc v) k (mark th i)
  | Rmw { reg; loc; op; operand } ->
    let old_v = State.mem_read st loc in
    let new_v = apply_binop op old_v (eval th operand) in
    State.set_thread (State.set_mem st loc new_v) k (mark (State.set_reg th reg old_v) i)
  | Fence _ -> State.set_thread st k (mark th i)

let flush_transitions ~pso st k =
  let th = st.State.threads.(k) in
  if pso then begin
    (* highest location first, the order the transition lists have always
       had: it fixes the in-RAM worklist's visiting order, hence its
       max-frontier statistic *)
    let acc = ref [] in
    for loc = 0 to Array.length th.State.perloc - 1 do
      match th.State.perloc.(loc) with
      | [] -> ()
      | v :: rest ->
        let th' = State.set_perloc_queue th loc rest in
        let st' = State.set_thread (State.set_mem st loc v) k th' in
        acc := (Flush { thread = k; loc }, st') :: !acc
    done;
    !acc
  end
  else begin
    match th.State.fifo with
    | [] -> []
    | (loc, v) :: rest ->
      let st' = State.set_thread (State.set_mem st loc v) k { th with State.fifo = rest } in
      [ (Flush { thread = k; loc }, st') ]
  end

let thread_transitions discipline st k =
  let th = st.State.threads.(k) in
  let n = Array.length th.State.prog in
  match discipline with
  | Sc ->
    let pc = State.next_unexecuted th in
    if pc >= n then [] else [ (Exec { thread = k; index = pc }, exec_direct st k pc) ]
  | Tso | Pso ->
    let pso = discipline = Pso in
    let execs =
      let pc = State.next_unexecuted th in
      if pc >= n then []
      else begin
        match exec_buffered ~pso st k pc with
        | Some st' -> [ (Exec { thread = k; index = pc }, st') ]
        | None -> []
      end
    in
    execs @ flush_transitions ~pso st k
  | Wo { window } ->
    let oldest = State.next_unexecuted th in
    if oldest >= n then []
    else begin
      let limit = min (n - 1) (oldest + window - 1) in
      let out = ref [] in
      for i = limit downto oldest do
        if not (State.is_executed th i) then begin
          let ready = ref true in
          for j = 0 to i - 1 do
            if (not (State.is_executed th j)) && conflicts th.State.prog j i then ready := false
          done;
          if !ready then out := (Exec { thread = k; index = i }, exec_direct st k i) :: !out
        end
      done;
      !out
    end

let transitions discipline st =
  let acc = ref [] in
  for k = Array.length st.State.threads - 1 downto 0 do
    acc := thread_transitions discipline st k @ !acc
  done;
  !acc
