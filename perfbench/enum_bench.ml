(* enum-ram / enum-spill traced runs: a pass over the same state space as
   `memrel enumerate`, calling the layers' public functions from here —
   Enumerate.expand for successors, Machine_state.add_packed for the dedup key,
   Machine_state.of_packed_key to rebuild spilled states, Snapshot.write/read for
   the level runs — so each layer's self time is measured where it is
   spent. The layer coverage is of one run of the real engine on the same
   input (Enumerate.outcomes, or Extmem.outcomes on enum-spill); what its
   layers do not explain is the residual: Enumerate's hash-dedup and
   worklist, or Extmem's sort, merge and bloom (extmem.other_s). *)

open Memrel

let l_expand = Tracer.layer ~keep_every:4096 "enumerate.expand"
let l_pack = Tracer.layer ~keep_every:4096 "state.pack"
let l_unpack = Tracer.layer ~keep_every:4096 "state.unpack"
let l_dedup = Tracer.layer ~keep_every:4096 "enumerate.dedup"
let l_snap_w = Tracer.layer "snapshot.write"
let l_snap_r = Tracer.layer "snapshot.read"
let l_level = Tracer.layer "enumerate.level"
let l_pass = Tracer.layer "enum.replay"
let l_engine = Tracer.layer "enumerate.outcomes"
let l_extmem = Tracer.layer "extmem.outcomes"

type counts = {
  mutable states : int;
  mutable transitions : int;
  mutable dedup_hits : int;
  mutable terminals : int;
  mutable key_bytes : int;
  mutable run_bytes : int;
  outcomes : (Litmus.outcome, int) Hashtbl.t;
}

let new_counts () =
  { states = 0; transitions = 0; dedup_hits = 0; terminals = 0; key_bytes = 0; run_bytes = 0;
    outcomes = Hashtbl.create 16 }

let pack buf st =
  Buffer.clear buf;
  Machine_state.add_packed buf st;
  Buffer.contents buf

(* Expand [st] inside an already open span, which is switched to
   enumerate.expand here and closed on return. [visit] returns whether a
   key is new. *)
let expand_one (t : Litmus.t) d c buf st ~visit ~push =
  c.states <- c.states + 1;
  ignore (Tracer.switch l_expand);
  let succs, _ = Enumerate.expand ~por:false d st in
  if succs = [] then begin
    ignore (Tracer.leave ());
    c.terminals <- c.terminals + 1;
    let o = t.observe st in
    Hashtbl.replace c.outcomes o (1 + Option.value ~default:0 (Hashtbl.find_opt c.outcomes o))
  end
  else begin
    List.iter
      (fun (_, s') ->
        c.transitions <- c.transitions + 1;
        ignore (Tracer.switch l_pack);
        let k = pack buf s' in
        (* the engine's bookkeeping: visited-set probe and worklist push *)
        ignore (Tracer.switch l_dedup);
        if visit k then begin
          c.key_bytes <- c.key_bytes + String.length k;
          push k s'
        end
        else c.dedup_hits <- c.dedup_hits + 1)
      succs;
    ignore (Tracer.leave ())
  end

(* The in-RAM engine's shape: a worklist and one hash set of packed keys. *)
let replay_ram (t : Litmus.t) d c =
  let seen = Hashtbl.create 65_536 in
  let buf = Buffer.create 256 in
  let root = Litmus.initial_state t in
  let k0 = pack buf root in
  Hashtbl.replace seen k0 ();
  c.key_bytes <- c.key_bytes + String.length k0;
  let stack = Stack.create () in
  Stack.push root stack;
  let visit k = if Hashtbl.mem seen k then false else (Hashtbl.replace seen k (); true) in
  let push _ s = Stack.push s stack in
  while not (Stack.is_empty stack) do
    let st = Stack.pop stack in
    Tracer.enter l_expand;
    expand_one t d c buf st ~visit ~push
  done

(* The external-memory engine's shape: level-synchronized BFS where each
   level lives only as packed keys in a snapshot run and every state is
   rebuilt with of_packed_key before it is expanded. Levels partition the
   state space (each step executes one instruction or drains one buffer
   entry), so dedup within a level is exact. *)
let replay_spill (t : Litmus.t) d c ~dir =
  let buf = Buffer.create 256 in
  let k0 = pack buf (Litmus.initial_state t) in
  c.key_bytes <- c.key_bytes + String.length k0;
  let file = Filename.concat dir "level.run" in
  let level = ref [ k0 ] and depth = ref 0 in
  while !level <> [] do
    Tracer.request_id := !depth;
    Tracer.enter l_level;
    let next = Hashtbl.create 4096 and run = Buffer.create 65_536 in
    let visit k = if Hashtbl.mem next k then false else (Hashtbl.replace next k (); true) in
    let push k _ =
      Buffer.add_uint16_be run (String.length k);
      Buffer.add_string run k
    in
    List.iter
      (fun k ->
        Tracer.enter l_unpack;
        let st = Machine_state.of_packed_key ~programs:t.programs k in
        expand_one t d c buf st ~visit ~push)
      !level;
    let payload = Buffer.contents run in
    c.run_bytes <- c.run_bytes + String.length payload;
    Tracer.enter l_snap_w;
    let w = Snapshot.write ~file ~tag:"perfbench/level" payload in
    ignore (Tracer.leave ());
    (* reading a run back includes splitting it into keys *)
    Tracer.enter l_snap_r;
    let r = Snapshot.read ~file ~tag:"perfbench/level" in
    let keys = ref [] and pos = ref 0 in
    (match (w, r) with
     | Ok (), Ok p when p = payload ->
       while !pos < String.length p do
         let len = String.get_uint16_be p !pos in
         keys := String.sub p (!pos + 2) len :: !keys;
         pos := !pos + 2 + len
       done
     | Error e, _ | _, Error e -> failwith ("level run: " ^ Snapshot.error_to_string e)
     | Ok (), Ok _ -> failwith "level run read back different bytes");
    level := List.rev !keys;
    ignore (Tracer.leave ());
    incr depth;
    ignore (Tracer.leave ())
  done;
  Sys.remove file

let discipline model = Semantics.of_model ~window:8 (Serve_bench.family_of model)

let pass ~test ~models ~spill ~dir =
  let t = Litmus.find test in
  List.map
    (fun m ->
      let c = new_counts () in
      if spill then replay_spill t (discipline m) c ~dir else replay_ram t (discipline m) c;
      (m, c))
    models

let outcome_string c =
  Hashtbl.fold (fun o n acc -> (o, n) :: acc) c.outcomes []
  |> List.sort compare
  |> List.map (fun (o, n) ->
         String.concat " " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) o)
         ^ Printf.sprintf ":%d" n)
  |> String.concat ","

let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b

let trace ~test ~models ~spill ~mem_budget_mb ~dir ~spans =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  (* a first pass grows the heap, which the runtime never gives back: the
     passes that are compared run after it *)
  ignore (pass ~test ~models ~spill ~dir);
  let g0 = Gc.quick_stat () in
  let per_model, wall_t = Tracer.traced l_pass (fun () -> pass ~test ~models ~spill ~dir) in
  let g1 = Gc.quick_stat () in
  let _, wall_u = Tracer.untraced (fun () -> pass ~test ~models ~spill ~dir) in
  let overhead_s = wall_t -. wall_u in
  Report.num "trace.overhead_s" overhead_s;
  Report.gc_fields g0 g1;
  let sum f = List.fold_left (fun s (_, c) -> s + f c) 0 per_model in
  let states = sum (fun c -> c.states) and transitions = sum (fun c -> c.transitions) in
  List.iter
    (fun (m, c) ->
      Report.int ("states." ^ m) c.states;
      Report.int ("terminals." ^ m) c.terminals;
      Report.str ("outcomes." ^ m) (outcome_string c))
    per_model;
  Report.int "enumerate.states" states;
  Report.int "enumerate.transitions" transitions;
  Report.num "enumerate.dedup_ratio"
    (float_of_int (sum (fun c -> c.dedup_hits)) /. float_of_int transitions);
  (* layer self times with the replay's tracing overhead taken out; the
     replay's own bookkeeping (enumerate.dedup) explains nothing *)
  let self l = Tracer.corrected_self_s ~overhead_s l in
  let expand_s = self l_expand and pack_s = self l_pack and unpack_s = self l_unpack in
  let per_call s l =
    if Tracer.calls_of l = 0 then 0.0 else s *. 1e9 /. float_of_int (Tracer.calls_of l)
  in
  Report.num "enumerate.expand_ns" (expand_s *. 1e9 /. float_of_int states);
  Report.num "state.pack_ns" (per_call pack_s l_pack);
  Report.num "state.unpack_ns" (per_call unpack_s l_unpack);
  Report.num "state.key_bytes" (float_of_int (sum (fun c -> c.key_bytes)) /. float_of_int states);
  let write_s = self l_snap_w and read_s = self l_snap_r in
  (* Coverage is of the workload's own program: the engine `memrel
     enumerate` runs, on the same input, timed with one root span. Expand,
     pack and unpack cost the same per state there as in the replay. *)
  let t = Litmus.find test in
  let real_states = ref 0 in
  let check m (r : _ Enumerate.result) =
    real_states := !real_states + r.Enumerate.states_visited;
    if r.Enumerate.exhausted <> None then Report.fail "%s %s: the engine stopped early" test m
  in
  if spill then begin
    let run_mb = float_of_int (sum (fun c -> c.run_bytes)) /. 1e6 in
    Report.num "snapshot.write_mb_per_s" (run_mb /. write_s);
    Report.num "snapshot.read_mb_per_s" (run_mb /. read_s);
    let m = List.hd models in
    let spill_dir = Filename.concat dir "extmem" in
    let x, wall_x =
      Tracer.traced l_extmem (fun () ->
          Extmem.outcomes ~mem_budget_bytes:(mem_budget_mb * 1024 * 1024) ~spill_dir
            ~resume_key:"perfbench" (discipline m) (Litmus.initial_state t) ~observe:t.observe)
    in
    Extmem.remove_spill_dir spill_dir;
    check m x.Extmem.base;
    let e = x.Extmem.ext in
    Report.int "extmem.levels" e.Extmem.levels;
    Report.int "extmem.spill_runs" e.Extmem.spill_runs;
    Report.num "extmem.spill_mb" (float_of_int e.Extmem.spill_bytes /. 1e6);
    Report.int "extmem.spill_generations" e.Extmem.spill_generations;
    Report.num "extmem.bloom_fp_ratio"
      (ratio e.Extmem.bloom_false_positives e.Extmem.bloom_probes);
    Report.int "extmem.compactions" e.Extmem.compactions;
    (* spill writes are charged at the measured container rate; sort,
       merge, bloom and spill reads are internal to Extmem and make up the
       named residual extmem.other_s *)
    let spill_write_s = float_of_int e.Extmem.spill_bytes /. 1e6 /. (run_mb /. write_s) in
    let explained = expand_s +. pack_s +. unpack_s +. spill_write_s in
    Report.num "extmem.other_s" (wall_x -. explained);
    Serve_bench.coverage ~wall:wall_x ~explained;
    Report.num "enumerate.states_per_s" (float_of_int states /. wall_x)
  end
  else begin
    (* hash-dedup and the worklist are internal to Enumerate: unattributed *)
    let (), wall_r =
      Tracer.traced l_engine (fun () ->
          List.iter
            (fun m ->
              check m
                (Enumerate.outcomes (discipline m) (Litmus.initial_state t) ~observe:t.observe))
            models)
    in
    Serve_bench.coverage ~wall:wall_r ~explained:(expand_s +. pack_s);
    Report.num "enumerate.states_per_s" (float_of_int states /. wall_r)
  end;
  if !real_states <> states then
    Report.fail "the engine expanded %d states, the replay %d" !real_states states;
  Tracer.write_jsonl spans;
  Report.print_with_failures ()
