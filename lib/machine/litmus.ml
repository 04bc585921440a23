module Model = Memrel_memmodel.Model
module Fence = Memrel_memmodel.Fence
open Instr

type outcome = (string * int) list

type t = {
  name : string;
  description : string;
  programs : Instr.t array list;
  initial_mem : (int * int) list;
  observe : State.t -> outcome;
  relaxed_outcome : outcome;
  allowed_under : Model.family -> bool;
}

let x = 0
let y = 1

let observe_regs specs st =
  List.sort compare
    (List.map
       (fun (thread, r) ->
         (Printf.sprintf "%d:r%d" thread r, State.reg st.State.threads.(thread) r))
       specs)

let observe_mem locs st =
  List.sort compare (List.map (fun (name, loc) -> (name, State.mem_read st loc)) locs)

let only families f = List.mem f families

let sb =
  {
    name = "sb";
    description = "store buffering: both threads store then load the other location";
    programs =
      [ [| store ~loc:x ~src:(Imm 1); load ~reg:0 ~loc:y |];
        [| store ~loc:y ~src:(Imm 1); load ~reg:0 ~loc:x |] ];
    initial_mem = [];
    observe = observe_regs [ (0, 0); (1, 0) ];
    relaxed_outcome = [ ("0:r0", 0); ("1:r0", 0) ];
    allowed_under =
      only [ Model.Total_store_order; Model.Partial_store_order; Model.Weak_ordering ];
  }

let sb_fence =
  {
    sb with
    name = "sb+fence";
    description = "store buffering with full fences: the relaxed outcome is forbidden everywhere";
    programs =
      [ [| store ~loc:x ~src:(Imm 1); fence Fence.Full; load ~reg:0 ~loc:y |];
        [| store ~loc:y ~src:(Imm 1); fence Fence.Full; load ~reg:0 ~loc:x |] ];
    allowed_under = only [];
  }

let mp =
  {
    name = "mp";
    description = "message passing: data then flag; reader sees flag but stale data?";
    programs =
      [ [| store ~loc:x ~src:(Imm 1); store ~loc:y ~src:(Imm 1) |];
        [| load ~reg:0 ~loc:y; load ~reg:1 ~loc:x |] ];
    initial_mem = [];
    observe = observe_regs [ (1, 0); (1, 1) ];
    relaxed_outcome = [ ("1:r0", 1); ("1:r1", 0) ];
    allowed_under = only [ Model.Partial_store_order; Model.Weak_ordering ];
  }

let mp_rel_acq =
  {
    mp with
    name = "mp+ra";
    description = "message passing with release/acquire fences: forbidden everywhere";
    programs =
      [ [| store ~loc:x ~src:(Imm 1); fence Fence.Release; store ~loc:y ~src:(Imm 1) |];
        [| load ~reg:0 ~loc:y; fence Fence.Acquire; load ~reg:1 ~loc:x |] ];
    allowed_under = only [];
  }

let lb =
  {
    name = "lb";
    description = "load buffering: loads see the other thread's later store";
    programs =
      [ [| load ~reg:0 ~loc:x; store ~loc:y ~src:(Imm 1) |];
        [| load ~reg:0 ~loc:y; store ~loc:x ~src:(Imm 1) |] ];
    initial_mem = [];
    observe = observe_regs [ (0, 0); (1, 0) ];
    relaxed_outcome = [ ("0:r0", 1); ("1:r0", 1) ];
    allowed_under = only [ Model.Weak_ordering ];
  }

let corr =
  {
    name = "corr";
    description = "coherence: two reads of one location must not see new-then-old";
    programs =
      [ [| store ~loc:x ~src:(Imm 1) |]; [| load ~reg:0 ~loc:x; load ~reg:1 ~loc:x |] ];
    initial_mem = [];
    observe = observe_regs [ (1, 0); (1, 1) ];
    relaxed_outcome = [ ("1:r0", 1); ("1:r1", 0) ];
    allowed_under = only [];
  }

let wrc =
  {
    name = "wrc";
    description = "write-to-read causality across three threads";
    programs =
      [ [| store ~loc:x ~src:(Imm 1) |];
        [| load ~reg:0 ~loc:x; store ~loc:y ~src:(Imm 1) |];
        [| load ~reg:0 ~loc:y; load ~reg:1 ~loc:x |] ];
    initial_mem = [];
    observe =
      (fun st ->
        List.sort compare
          (observe_regs [ (1, 0) ] st @ observe_regs [ (2, 0); (2, 1) ] st));
    relaxed_outcome = [ ("1:r0", 1); ("2:r0", 1); ("2:r1", 0) ];
    allowed_under = only [ Model.Weak_ordering ];
  }

let iriw =
  {
    name = "iriw";
    description = "independent reads of independent writes: readers disagree on store order";
    programs =
      [ [| store ~loc:x ~src:(Imm 1) |];
        [| store ~loc:y ~src:(Imm 1) |];
        [| load ~reg:0 ~loc:x; load ~reg:1 ~loc:y |];
        [| load ~reg:0 ~loc:y; load ~reg:1 ~loc:x |] ];
    initial_mem = [];
    observe =
      (fun st ->
        List.sort compare (observe_regs [ (2, 0); (2, 1); (3, 0); (3, 1) ] st));
    relaxed_outcome = [ ("2:r0", 1); ("2:r1", 0); ("3:r0", 1); ("3:r1", 0) ];
    allowed_under = only [ Model.Weak_ordering ];
  }

let increment_thread =
  [| load ~reg:0 ~loc:x; binop ~dst:0 Add (Reg 0) (Imm 1); store ~loc:x ~src:(Reg 0) |]

let inc =
  {
    name = "inc";
    description =
      "the canonical atomicity violation (Section 2.2): two unsynchronized increments; \
       x = 1 manifests the bug and is allowed under every model, including SC";
    programs = [ increment_thread; increment_thread ];
    initial_mem = [];
    observe = observe_mem [ ("x", x) ];
    relaxed_outcome = [ ("x", 1) ];
    allowed_under = (fun _ -> true);
  }

let sb_one_fence =
  {
    sb with
    name = "sb+fence1";
    description = "store buffering fenced in one thread only: the relaxed outcome survives";
    programs =
      [ [| store ~loc:x ~src:(Imm 1); fence Fence.Full; load ~reg:0 ~loc:y |];
        [| store ~loc:y ~src:(Imm 1); load ~reg:0 ~loc:x |] ];
    allowed_under =
      only [ Model.Total_store_order; Model.Partial_store_order; Model.Weak_ordering ];
  }

let two_plus_two_w =
  {
    name = "2+2w";
    description = "2+2W: two threads write both locations in opposite orders";
    programs =
      [ [| store ~loc:x ~src:(Imm 1); store ~loc:y ~src:(Imm 2) |];
        [| store ~loc:y ~src:(Imm 1); store ~loc:x ~src:(Imm 2) |] ];
    initial_mem = [];
    observe = observe_mem [ ("x", x); ("y", y) ];
    relaxed_outcome = [ ("x", 1); ("y", 1) ];
    (* both final writes being the FIRST writes requires ST/ST reordering *)
    allowed_under = only [ Model.Partial_store_order; Model.Weak_ordering ];
  }

let increment_n n =
  if n < 2 then invalid_arg "Litmus.increment_n: n >= 2 required";
  {
    name = Printf.sprintf "inc%d" n;
    description =
      Printf.sprintf "the canonical atomicity violation with %d incrementing threads" n;
    programs = List.init n (fun _ -> increment_thread);
    initial_mem = [];
    observe = observe_mem [ ("x", x) ];
    relaxed_outcome = [ ("x", 1) ];
    allowed_under = (fun _ -> true);
  }

let inc_atomic =
  {
    name = "inc+rmw";
    description =
      "the canonical bug FIXED with an atomic fetch-and-add: x = 1 becomes unreachable \
       under every model (the Section 2.2 locking discussion, primitive form)";
    programs =
      [ [| rmw ~reg:0 ~loc:x Add (Imm 1) |]; [| rmw ~reg:0 ~loc:x Add (Imm 1) |] ];
    initial_mem = [];
    observe = observe_mem [ ("x", x) ];
    relaxed_outcome = [ ("x", 1) ];
    allowed_under = only [];
  }

let all =
  [ inc; inc_atomic; sb; sb_fence; sb_one_fence; mp; mp_rel_acq; lb; corr; two_plus_two_w; wrc;
    iriw ]

let names = List.map (fun t -> t.name) all

(* incN names come from clients of the daemon too: a bound refuses
   "inc1000000000" before [increment_n] allocates its thread list *)
let max_inc_threads = 64

let find name =
  match List.find_opt (fun t -> String.equal t.name name) all with
  | Some t -> t
  | None ->
    (* "incN" names the generalized increment family, e.g. "inc4". N must
       be written the way [string_of_int] writes it (no sign, leading zero,
       underscore or radix prefix), so each test has exactly one name *)
    let suffix =
      if String.starts_with ~prefix:"inc" name then String.sub name 3 (String.length name - 3)
      else ""
    in
    match int_of_string_opt suffix with
    | Some n when n >= 2 && n <= max_inc_threads && string_of_int n = suffix -> increment_n n
    | _ -> raise Not_found

let unknown_test name =
  Printf.sprintf "unknown litmus test %S (available: %s; or incN, 2 <= N <= %d, for the N-thread \
                  increment)"
    name (String.concat ", " names) max_inc_threads

(* -- structural hash ---------------------------------------------------
   FNV-1a over a canonical byte encoding of everything that determines a
   test's semantics: the per-thread instruction streams, the initial
   memory, and the observation spec (via the relaxed outcome's observable
   names — two tests with identical programs but different observations
   must not share a cache entry). The name and description are deliberately
   excluded: the service cache must key on structure, not on what a client
   chose to call the test. *)

let fnv_offset = 0xcbf29ce484222325L
let fnv_prime = 0x100000001b3L

let hash t =
  let h = ref fnv_offset in
  let mix_byte b = h := Int64.mul (Int64.logxor !h (Int64.of_int (b land 0xff))) fnv_prime in
  let mix_int v =
    (* 8 little-endian bytes of the (boxed-to-63-bit) int *)
    for shift = 0 to 7 do
      mix_byte ((v asr (8 * shift)) land 0xff)
    done
  in
  let mix_string s =
    mix_int (String.length s);
    String.iter (fun c -> mix_byte (Char.code c)) s
  in
  let mix_operand = function
    | Instr.Reg r -> mix_int 0; mix_int r
    | Instr.Imm v -> mix_int 1; mix_int v
  in
  let mix_binop = function Instr.Add -> mix_int 0 | Instr.Sub -> mix_int 1 | Instr.Mul -> mix_int 2 in
  let mix_instr = function
    | Instr.Load { reg; loc } -> mix_int 0; mix_int reg; mix_int loc
    | Instr.Store { loc; src } -> mix_int 1; mix_int loc; mix_operand src
    | Instr.Binop { dst; op; a; b } -> mix_int 2; mix_int dst; mix_binop op; mix_operand a; mix_operand b
    | Instr.Rmw { reg; loc; op; operand } ->
      mix_int 3; mix_int reg; mix_int loc; mix_binop op; mix_operand operand
    | Instr.Fence f ->
      mix_int 4;
      mix_int (match f with Fence.Acquire -> 0 | Fence.Release -> 1 | Fence.Full -> 2)
  in
  mix_int (List.length t.programs);
  List.iter
    (fun prog ->
      mix_int (Array.length prog);
      Array.iter mix_instr prog)
    t.programs;
  let init = List.sort compare t.initial_mem in
  mix_int (List.length init);
  List.iter (fun (loc, v) -> mix_int loc; mix_int v) init;
  mix_int (List.length t.relaxed_outcome);
  List.iter (fun (name, v) -> mix_string name; mix_int v) t.relaxed_outcome;
  Printf.sprintf "%016Lx" !h

let structure t =
  let threads = List.length t.programs in
  let locs = Hashtbl.create 8 in
  List.iter (fun (loc, _) -> Hashtbl.replace locs loc ()) t.initial_mem;
  let events = ref 0 in
  List.iter
    (fun prog ->
      Array.iter
        (fun i ->
          (match Instr.loc_accessed i with Some l -> Hashtbl.replace locs l () | None -> ());
          if Instr.is_load i || Instr.is_store i then incr events)
        prog)
    t.programs;
  (threads, Hashtbl.length locs, !events)

let corpus_table () =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "%-10s %-16s %7s %4s %6s  %s\n" "name" "hash" "threads" "locs" "events"
       "description");
  List.iter
    (fun t ->
      let threads, locs, events = structure t in
      Buffer.add_string buf
        (Printf.sprintf "%-10s %-16s %7d %4d %6d  %s\n" t.name (hash t) threads locs events
           t.description))
    all;
  Buffer.contents buf

let initial_state t = State.init ~programs:t.programs ~initial_mem:t.initial_mem

type spill = { dir : string; mem_budget_bytes : int; resume : bool; resume_key : string }

let run_exhaustive ?window ?max_states ?por ?budget ?spill t family =
  let discipline = Semantics.of_model ?window family in
  let st = initial_state t in
  match spill with
  | None -> (Enumerate.outcomes ?max_states ?por ?budget discipline st ~observe:t.observe, None)
  | Some s ->
    let x =
      Extmem.outcomes ?max_states ?por ?budget ~mem_budget_bytes:s.mem_budget_bytes
        ~resume:s.resume ~spill_dir:s.dir ~resume_key:s.resume_key discipline st
        ~observe:t.observe
    in
    (* a complete run's manifest would only replay this answer: give the
       disk back. A partial run keeps its last level for a resume *)
    if x.Extmem.base.Enumerate.exhausted = None then Extmem.remove_spill_dir s.dir;
    (x.Extmem.base, Some x.Extmem.ext)

let shows_relaxed t outcomes = List.mem_assoc t.relaxed_outcome outcomes

type verdict = {
  test : string;
  model : Model.family;
  observed_relaxed : bool;
  expected_relaxed : bool;
  agrees : bool;
  outcome_count : int;
  terminals : int;
  exhausted : Memrel_prob.Budget.exhaustion option;
}

let verdict t family (r : outcome Enumerate.result) =
  let observed_relaxed = shows_relaxed t r.Enumerate.outcomes in
  let expected_relaxed = t.allowed_under family in
  {
    test = t.name;
    model = family;
    observed_relaxed;
    expected_relaxed;
    agrees = observed_relaxed = expected_relaxed;
    outcome_count = List.length r.Enumerate.outcomes;
    terminals = r.Enumerate.terminals;
    exhausted = r.Enumerate.exhausted;
  }

let check ?window ?por ?budget ?spill t family =
  verdict t family (fst (run_exhaustive ?window ?por ?budget ?spill t family))

let check_all ?window () =
  let families =
    [ Model.Sequential_consistency; Model.Total_store_order; Model.Partial_store_order;
      Model.Weak_ordering ]
  in
  List.concat_map (fun t -> List.map (fun f -> check ?window t f) families) all
