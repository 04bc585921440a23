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

let buffered = function Tso | Pso -> true | Sc | Wo _ -> false

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

let drained discipline th =
  match discipline with Pso -> State.perloc_empty th | Sc | Tso | Wo _ -> th.State.fifo = []

(* -- enabledness ---------------------------------------------------------

   Whether an instruction may issue depends only on its own thread (program
   order, window hazards, the thread's buffers): never on other threads or
   on shared memory. Under the buffered disciplines a locked instruction
   (RMW) and a Full/Release fence wait for an empty buffer. *)

let exec_ready discipline th i =
  match discipline with
  | Sc | Wo _ -> true
  | Tso | Pso -> (
    match th.State.prog.(i) with
    | Instr.Rmw _ | Instr.Fence (Fence.Full | Fence.Release) -> drained discipline th
    | _ -> true)

(* TSO/PSO: thread [k]'s flushes consed onto [acc]. PSO flushes come
   highest location first, the order the transition lists have always had:
   it fixes the in-RAM worklist's visiting order, hence its max-frontier
   statistic. *)
let add_flushes discipline th k acc =
  match discipline with
  | Sc | Wo _ -> acc
  | Tso -> (
    match th.State.fifo with [] -> acc | (loc, _) :: _ -> Flush { thread = k; loc } :: acc)
  | Pso ->
    let acc = ref acc in
    Array.iteri
      (fun loc q -> if q <> [] then acc := Flush { thread = k; loc } :: !acc)
      th.State.perloc;
    !acc

(* thread [k]'s enabled labels, in order, consed onto [acc]: its next
   instruction (SC, TSO, PSO) or its window's ready instructions in index
   order (WO), then its flushes *)
let add_thread_enabled discipline st k acc =
  let th = st.State.threads.(k) in
  let n = Array.length th.State.prog in
  let pc = State.next_unexecuted th in
  match discipline with
  | Sc | Tso | Pso ->
    let acc = add_flushes discipline th k acc in
    if pc < n && exec_ready discipline th pc then Exec { thread = k; index = pc } :: acc else acc
  | Wo { window } ->
    let acc = ref acc in
    for i = min (n - 1) (pc + window - 1) downto pc do
      if not (State.is_executed th i) then begin
        let ready = ref true in
        for j = 0 to i - 1 do
          if (not (State.is_executed th j)) && conflicts th.State.prog j i then ready := false
        done;
        if !ready then acc := Exec { thread = k; index = i } :: !acc
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

(* -- one successor -------------------------------------------------------- *)

(* instruction [i] of thread [k]: under TSO/PSO stores go to the thread's
   buffer and loads forward from it (newest matching entry); under SC/WO
   both act on memory directly *)
let exec discipline st k i =
  let th = st.State.threads.(k) in
  let open Instr in
  match th.State.prog.(i) with
  | Binop { dst; op; a; b } ->
    let v = apply_binop op (eval th a) (eval th b) in
    State.set_thread st k (mark (State.set_reg th dst v) i)
  | Load { reg; loc } ->
    let forwarded =
      match discipline with
      | Sc | Wo _ -> None
      | Tso -> State.buffered_read_fifo th loc
      | Pso -> State.buffered_read_perloc th loc
    in
    let v = match forwarded with Some v -> v | None -> State.mem_read st loc in
    State.set_thread st k (mark (State.set_reg th reg v) i)
  | Store { loc; src } ->
    let v = eval th src in
    (match discipline with
     | Sc | Wo _ -> State.set_thread (State.set_mem st loc v) k (mark th i)
     | Tso -> State.set_thread st k (mark { th with State.fifo = th.State.fifo @ [ (loc, v) ] } i)
     | Pso ->
       let queue = State.perloc_queue th loc @ [ v ] in
       State.set_thread st k (mark (State.set_perloc_queue th loc queue) i))
  | Rmw { reg; loc; op; operand } ->
    (* atomic read-modify-write straight against memory (under TSO/PSO a
       locked instruction, enabled only on an empty buffer) *)
    let old_v = State.mem_read st loc in
    let new_v = apply_binop op old_v (eval th operand) in
    State.set_thread (State.set_mem st loc new_v) k (mark (State.set_reg th reg old_v) i)
  | Fence _ -> State.set_thread st k (mark th i)

(* publish the oldest buffered store of thread [k] to [loc] *)
let flush discipline st k loc =
  let th = st.State.threads.(k) in
  match discipline with
  | Pso -> (
    match th.State.perloc.(loc) with
    | v :: rest -> State.set_thread (State.set_mem st loc v) k (State.set_perloc_queue th loc rest)
    | [] -> invalid_arg "Semantics.step: flush of an empty buffer")
  | Sc | Tso | Wo _ -> (
    match th.State.fifo with
    | (l, v) :: rest when l = loc ->
      State.set_thread (State.set_mem st loc v) k { th with State.fifo = rest }
    | _ -> invalid_arg "Semantics.step: flush of an empty buffer")

let step discipline st = function
  | Exec { thread; index } -> exec discipline st thread index
  | Flush { thread; loc } -> flush discipline st thread loc

let transitions discipline st =
  List.map (fun l -> (l, step discipline st l)) (enabled discipline st)
