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

(* -- label codes and enabled bitsets --------------------------------------

   Thread k's codes start at [first.(k)]: its exec of instruction i, then
   under TSO/PSO its flush of each location of the layout, highest first,
   so that codes ascend in listing order. *)

let word_bits = 62

type codes = {
  discipline : discipline;
  labels : label array;
  first : int array;
  drain : int array;  (* per thread: instructions that wait for drained buffers *)
  hazards : int array array;  (* WO, per thread and instruction: earlier conflicting ones *)
}

let make_codes discipline st =
  let threads = st.State.threads and buffered = buffered discipline in
  let locs = if buffered then Array.length st.State.mem else 0 in
  let thread_labels k (th : State.thread) =
    let n = Array.length th.prog in
    Array.init (n + locs) (fun i ->
        if i < n then Exec { thread = k; index = i }
        else Flush { thread = k; loc = n + locs - 1 - i })
  in
  let labels = Array.concat (List.mapi thread_labels (Array.to_list threads)) in
  let mask n p =
    List.fold_left (fun m j -> if p j then m lor (1 lsl j) else m) 0 (List.init n Fun.id)
  in
  let drain (th : State.thread) =
    mask (Array.length th.prog) (fun i ->
        match th.prog.(i) with
        | Instr.Rmw _ | Instr.Fence (Fence.Full | Fence.Release) -> buffered
        | _ -> false)
  in
  let hazards (th : State.thread) =
    match discipline with
    | Wo _ -> Array.init (Array.length th.prog) (fun i -> mask i (fun j -> conflicts th.prog j i))
    | Sc | Tso | Pso -> [||]
  in
  let first = Array.make (Array.length threads + 1) 0 in
  Array.iteri (fun k th -> first.(k + 1) <- first.(k) + Array.length th.State.prog + locs) threads;
  { discipline; labels; first; drain = Array.map drain threads;
    hazards = Array.map hazards threads }

(* the last codes made, per domain: the list views ([enabled],
   [Enumerate.expand]) are called state after state of one space *)
let last = Domain.DLS.new_key (fun () -> None)

let codes discipline st =
  let threads = st.State.threads and locs = Array.length st.State.mem in
  let rec same progs k = k < 0 || (progs.(k) == threads.(k).State.prog && same progs (k - 1)) in
  match Domain.DLS.get last with
  | Some (d, progs, l, c)
    when d = discipline && l = locs && Array.length progs = Array.length threads
         && same progs (Array.length threads - 1) -> c
  | _ ->
    let c = make_codes discipline st in
    Domain.DLS.set last (Some (discipline, Array.map (fun th -> th.State.prog) threads, locs, c));
    c

let code_count c = Array.length c.labels
let label c code = c.labels.(code)
let first_code c k = c.first.(k)
let bitset c = Array.make (Int.max 1 ((code_count c + word_bits - 1) / word_bits)) 0
let is_set bits b = bits.(b / word_bits) land (1 lsl (b mod word_bits)) <> 0
let set bits b = bits.(b / word_bits) <- bits.(b / word_bits) lor (1 lsl (b mod word_bits))

(* clear codes [lo, hi), a word at a time *)
let rec clear_range bits lo hi =
  if lo < hi then begin
    let w = lo / word_bits in
    let top = Int.min hi ((w + 1) * word_bits) in
    bits.(w) <- bits.(w) land lnot (((1 lsl (top - lo)) - 1) lsl (lo - (w * word_bits)));
    clear_range bits top hi
  end

let count bits =
  let rec pop w n = if w = 0 then n else pop (w land (w - 1)) (n + 1) in
  Array.fold_left (fun n w -> pop w n) 0 bits

(* The readiness rules, written once: thread [k]'s enabled codes are set
   in [bits]. Its next instruction (SC, TSO, PSO) issues unless it is a
   locked instruction (RMW) or a Full/Release fence under TSO/PSO and the
   buffers are not drained; under WO an instruction of the window issues
   once every earlier conflicting instruction has. TSO flushes its oldest
   entry, PSO any non-empty location's. *)
let add_thread c bits st k =
  let th = st.State.threads.(k) in
  let base = c.first.(k) and n = Array.length th.State.prog and top = c.first.(k + 1) - 1 in
  let pc = ref 0 in
  while !pc < n && th.State.executed land (1 lsl !pc) <> 0 do incr pc done;
  let pc = !pc in
  (match c.discipline with
   | Wo { window } ->
     for i = pc to Int.min (n - 1) (pc + window - 1) do
       if c.hazards.(k).(i) land lnot th.State.executed = 0 && not (State.is_executed th i) then
         set bits (base + i)
     done
   | Sc | Tso | Pso ->
     if pc < n && (c.drain.(k) land (1 lsl pc) = 0 || drained c.discipline th) then
       set bits (base + pc));
  match (c.discipline, th.State.fifo) with
  | Tso, (loc, _) :: _ -> set bits (top - loc)
  | Pso, _ ->
    for loc = 0 to Array.length th.State.perloc - 1 do
      if th.State.perloc.(loc) <> [] then set bits (top - loc)
    done
  | _ -> ()

let thread_bits c bits st k =
  clear_range bits c.first.(k) c.first.(k + 1);
  add_thread c bits st k

let state_bits c bits st =
  Array.fill bits 0 (Array.length bits) 0;
  for k = 0 to Array.length st.State.threads - 1 do
    add_thread c bits st k
  done

(* [1 lsl i] mod 67 differs for every i < 66, as 2 generates the units
   mod 67 *)
let bit_index =
  let t = Array.make 67 0 in
  for i = 0 to word_bits - 1 do t.((1 lsl i) mod 67) <- i done;
  t

let labels c bits =
  let acc = ref [] in
  for w = 0 to Array.length bits - 1 do
    let x = ref bits.(w) in
    while !x <> 0 do
      let low = !x land - !x in
      x := !x lxor low;
      acc := c.labels.((w * word_bits) + bit_index.(low mod 67)) :: !acc
    done
  done;
  List.rev !acc

(* the labels of the codes [fill] sets *)
let view discipline st fill =
  let c = codes discipline st in
  let bits = bitset c in
  fill c bits;
  labels c bits

let thread_enabled discipline st k = view discipline st (fun c bits -> add_thread c bits st k)
let enabled discipline st = view discipline st (fun c bits -> state_bits c bits st)

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
