(* Chronological enumeration of allowed candidate executions.

   Same decision tree as the generate-and-prune enumeration kept as its
   test oracle — coherence order per location slot by slot (locations in
   sorted order, remaining writes in ascending-id order), then a
   reads-from source per read (initial value first, then writers
   ascending) — walked depth-first in the same value order, so the two
   visit the same leaves in the same sequence and their per-outcome
   accepted-candidate counts are directly comparable. What changes is
   everything around the tree:

   - each decision installs its edges at once (a consecutive co pair; an
     rf edge and the fr edges to every co-successor of the source) into a
     trail-based {!Order} closure per axiom instance, and an edge only
     touches the instances watching its (communication kind x internal)
     class. A rejected edge closes a cycle that every leaf below contains,
     so the subtree is cut; a leaf reached has its whole candidate's
     com edges installed cycle-free, so it is exactly a leaf generate
     accepts;
   - before search, rf domains are filtered against the static closures
     (a value whose edges already close a cycle is dropped; a singleton
     domain becomes a forced assignment installed at the root), to a
     fixpoint;
   - leaves are memoized: an accepted candidate's outcome is a function of
     its rf vector and each location's coherence-maximal write alone
     (register values are thread-local dataflow over rf; final memory is
     the co-last write's value), so when those fit one native int the
     leaf's outcome is a hash probe, not a candidate materialization. *)

module Semantics = Memrel_machine.Semantics
module Litmus = Memrel_machine.Litmus
module Budget = Memrel_prob.Budget

type stats = {
  events : int;
  accepted : int;
  decisions : int;
  propagations : int;
  conflicts : int;
  forced : int;
  memo_hits : int;
  distinct_keys : int;
  log10_naive_space : float;
  naive_space : float;
  elapsed_s : float;
  candidates_per_sec : float;
  exhausted : Budget.exhaustion option;
}

type entry = { outcome : Litmus.outcome; candidates : int; witness : Candidate.t }

type run = { stats : stats; entries : entry list }

type level_kind = Co_level of { loc : int; pos : int } | Rf_level of { read : int }

let com_code = function Axioms.Rf -> 0 | Axioms.Co -> 1 | Axioms.Fr -> 2

let rec bits_needed v = if v = 0 then 0 else 1 + bits_needed (v lsr 1)

let run ?(window = 8) ?budget (t : Litmus.t) family =
  let t0 = Unix.gettimeofday () in
  let events = Event.of_programs t.Litmus.programs in
  let n = Array.length events in
  if n > Order.max_vertices then
    invalid_arg
      (Printf.sprintf "Solver.run: %d events (at most %d supported)" n Order.max_vertices);
  let discipline = Semantics.of_model ~window family in
  let insts = Array.of_list (Axioms.instances discipline t.Litmus.programs events) in
  let norders = Array.length insts in
  let orders = Array.map (fun _ -> Order.create n) insts in
  (* which instances care about an edge, by (com x internal) class *)
  let watch =
    Array.init 6 (fun code ->
        let com = [| Axioms.Rf; Axioms.Co; Axioms.Fr |].(code / 2) in
        let internal = code land 1 = 1 in
        let l = ref [] in
        for i = norders - 1 downto 0 do
          if insts.(i).Axioms.wants com ~internal then l := i :: !l
        done;
        Array.of_list !l)
  in
  let watch_for com u v =
    watch.((com_code com * 2) + if Event.same_thread events.(u) events.(v) then 1 else 0)
  in
  Array.iteri
    (fun oi (inst : Axioms.instance) ->
      List.iter
        (fun (u, v) ->
          if not (Order.reaches orders.(oi) u v || Order.add orders.(oi) u v) then
            failwith
              (Printf.sprintf "Solver.run: static edges of %s cyclic" inst.Axioms.iname))
        inst.Axioms.static_edges)
    insts;
  let locs = Array.of_list (Event.locations events) in
  let nlocs = Array.length locs in
  let loc_index = Hashtbl.create 8 in
  Array.iteri (fun li loc -> Hashtbl.replace loc_index loc li) locs;
  let lidx = Array.map (fun (e : Event.t) -> Hashtbl.find loc_index e.Event.loc) events in
  let writes_at =
    Array.map
      (fun loc ->
        Array.to_seq events
        |> Seq.filter (fun (e : Event.t) -> Event.is_write e && e.Event.loc = loc)
        |> Seq.map (fun (e : Event.t) -> e.Event.id)
        |> Array.of_seq)
      locs
  in
  let reads =
    Array.to_seq events |> Seq.filter Event.is_read
    |> Seq.map (fun (e : Event.t) -> e.Event.id)
    |> Array.of_seq
  in
  let nreads = Array.length reads in
  let wr_idx = Array.make (max n 1) (-1) in
  Array.iter (fun ws -> Array.iteri (fun i w -> wr_idx.(w) <- i) ws) writes_at;
  (* decision levels: every co slot (locations in order), then every read *)
  let nco = Array.fold_left (fun a ws -> a + Array.length ws) 0 writes_at in
  let nlevels = nco + nreads in
  let level_kinds = Array.make (max nlevels 1) (Rf_level { read = 0 }) in
  let next_level = ref 0 in
  Array.iteri
    (fun li ws ->
      Array.iteri
        (fun pos _ ->
          level_kinds.(!next_level) <- Co_level { loc = li; pos };
          incr next_level)
        ws)
    writes_at;
  Array.iteri
    (fun ri _ ->
      level_kinds.(!next_level) <- Rf_level { read = ri };
      incr next_level)
    reads;
  let propagations = ref 0 and conflicts = ref 0 in
  let decisions = ref 0 and forced = ref 0 in
  let install com u v =
    let ws = watch_for com u v in
    let ok = ref true and k = ref 0 in
    let nw = Array.length ws in
    while !ok && !k < nw do
      let ord = orders.(ws.(!k)) in
      incr k;
      if not (Order.reaches ord u v) then
        if Order.add ord u v then incr propagations
        else begin
          incr conflicts;
          ok := false
        end
    done;
    !ok
  in
  (* ---- root propagation: rf domains against the static closures ---- *)
  let contradiction = ref false in
  let root_install com u v = if not !contradiction then contradiction := not (install com u v) in
  let feasible =
    Array.map
      (fun r ->
        let ws = writes_at.(lidx.(r)) in
        Array.init
          (Array.length ws + 1)
          (fun c -> c = 0 || ws.(c - 1) <> r))
      reads
  in
  let rf_forced = Array.make (max nreads 1) false in
  let changed = ref true in
  while !changed && not !contradiction do
    changed := false;
    Array.iteri
      (fun ri r ->
        if not !contradiction then begin
          let ws = writes_at.(lidx.(r)) in
          let m = Array.length ws in
          let dom = feasible.(ri) in
          for c = 0 to m do
            if dom.(c) then begin
              let dead =
                if c = 0 then
                  (* reading the initial value from-reads every writer *)
                  Array.exists
                    (fun w' ->
                      w' <> r
                      && Array.exists
                           (fun oi -> Order.reaches orders.(oi) w' r)
                           (watch_for Axioms.Fr r w'))
                    ws
                else
                  let w = ws.(c - 1) in
                  Array.exists
                    (fun oi -> Order.reaches orders.(oi) r w)
                    (watch_for Axioms.Rf w r)
              in
              if dead then begin
                dom.(c) <- false;
                changed := true
              end
            end
          done;
          let count = Array.fold_left (fun a b -> if b then a + 1 else a) 0 dom in
          if count = 1 && not rf_forced.(ri) then begin
            rf_forced.(ri) <- true;
            incr forced;
            let c = ref 0 in
            Array.iteri (fun i b -> if b then c := i) dom;
            (match !c with
            | 0 -> Array.iter (fun w' -> if w' <> r then root_install Axioms.Fr r w') ws
            | c -> root_install Axioms.Rf ws.(c - 1) r);
            changed := true
          end
        end)
      reads
  done;
  let domain_empty =
    Array.exists (fun dom -> Array.for_all not dom) feasible
  in
  (* ---- leaf handling: memoized outcomes ---- *)
  let read_shift = Array.make (max nreads 1) 0 in
  let loc_shift = Array.make (max nlocs 1) 0 in
  let total_bits = ref 0 in
  Array.iteri
    (fun ri r ->
      read_shift.(ri) <- !total_bits;
      total_bits := !total_bits + bits_needed (Array.length writes_at.(lidx.(r))))
    reads;
  Array.iteri
    (fun li ws ->
      loc_shift.(li) <- !total_bits;
      let m = Array.length ws in
      if m > 0 then total_bits := !total_bits + bits_needed (m - 1))
    writes_at;
  let use_memo = !total_bits <= Sys.int_size - 2 in
  let co_perm = Array.map (fun ws -> Array.make (max (Array.length ws) 1) (-1)) writes_at in
  let co_used = Array.map (fun ws -> Array.make (max (Array.length ws) 1) false) writes_at in
  let co_pos = Array.make (max n 1) (-1) in
  let rf_code = Array.make (max nreads 1) 0 in
  let encode () =
    let key = ref 0 in
    for ri = 0 to nreads - 1 do
      key := !key lor (rf_code.(ri) lsl read_shift.(ri))
    done;
    for li = 0 to nlocs - 1 do
      let m = Array.length writes_at.(li) in
      if m > 0 then key := !key lor (wr_idx.(co_perm.(li).(m - 1)) lsl loc_shift.(li))
    done;
    !key
  in
  let programs = Array.of_list t.Litmus.programs in
  let materialize () =
    let rf = Array.make (max n 1) None in
    Array.iteri
      (fun ri r ->
        rf.(r) <-
          (match rf_code.(ri) with 0 -> None | c -> Some writes_at.(lidx.(r)).(c - 1)))
      reads;
    let co =
      Array.to_list
        (Array.mapi (fun li loc -> (loc, Array.to_list co_perm.(li) |> List.filter (fun w -> w >= 0))) locs)
    in
    { Candidate.events; programs; initial_mem = t.Litmus.initial_mem; rf; co }
  in
  let key_tbl : (int, int) Hashtbl.t = Hashtbl.create 1024 in
  let out_tbl : (Litmus.outcome, int) Hashtbl.t = Hashtbl.create 16 in
  let counts = ref (Array.make 8 0) in
  let witnesses = ref (Array.make 8 None) in
  let nslots = ref 0 in
  let slot_of o c =
    match Hashtbl.find_opt out_tbl o with
    | Some s -> s
    | None ->
      let s = !nslots in
      incr nslots;
      if s >= Array.length !counts then begin
        let nc = Array.make (2 * s) 0 in
        Array.blit !counts 0 nc 0 (Array.length !counts);
        counts := nc;
        let nw = Array.make (2 * s) None in
        Array.blit !witnesses 0 nw 0 (Array.length !witnesses);
        witnesses := nw
      end;
      !witnesses.(s) <- Some (o, c);
      Hashtbl.add out_tbl o s;
      s
  in
  let accepted = ref 0 and memo_hits = ref 0 in
  let observe = t.Litmus.observe in
  let leaf () =
    incr accepted;
    (match budget with Some b -> Budget.spend b 1 | None -> ());
    let slot =
      if use_memo then begin
        let key = encode () in
        match Hashtbl.find_opt key_tbl key with
        | Some s ->
          incr memo_hits;
          s
        | None ->
          let c = materialize () in
          let s = slot_of (Candidate.outcome c ~observe) c in
          Hashtbl.add key_tbl key s;
          s
      end
      else begin
        let c = materialize () in
        slot_of (Candidate.outcome c ~observe) c
      end
    in
    !counts.(slot) <- !counts.(slot) + 1
  in
  (* ---- the search ---- *)
  let exception Stop of Budget.cause in
  let exhausted = ref None in
  let check_budget () =
    match budget with
    | None -> ()
    | Some b -> (
      match Budget.check b with Some cause -> raise (Stop cause) | None -> ())
  in
  let push_all () = Array.iter Order.push orders in
  let pop_all () = Array.iter Order.pop orders in
  let rec solve level =
    if level = nlevels then leaf ()
    else
      match level_kinds.(level) with
      | Co_level { loc = li; pos } -> solve_co level li pos
      | Rf_level { read = ri } -> solve_rf level ri
  and solve_co level li pos =
    let ws = writes_at.(li) in
    let used = co_used.(li) in
    for wi = 0 to Array.length ws - 1 do
      if not used.(wi) then begin
        check_budget ();
        incr decisions;
        let w = ws.(wi) in
        push_all ();
        if pos = 0 || install Axioms.Co co_perm.(li).(pos - 1) w then begin
          used.(wi) <- true;
          co_perm.(li).(pos) <- w;
          co_pos.(w) <- pos;
          solve (level + 1);
          co_pos.(w) <- -1;
          used.(wi) <- false
        end;
        pop_all ()
      end
    done
  and solve_rf level ri =
    let r = reads.(ri) in
    let li = lidx.(r) in
    let ws = writes_at.(li) in
    let m = Array.length ws in
    let dom = feasible.(ri) in
    for code = 0 to m do
      if dom.(code) then begin
        check_budget ();
        incr decisions;
        push_all ();
        rf_code.(ri) <- code;
        let ok = ref (code = 0 || install Axioms.Rf ws.(code - 1) r) in
        (* fr: r precedes every co-successor of its source *)
        let p = ref (match code with 0 -> 0 | _ -> co_pos.(ws.(code - 1)) + 1) in
        while !ok && !p < m do
          let w' = co_perm.(li).(!p) in
          incr p;
          if w' <> r then ok := install Axioms.Fr r w'
        done;
        if !ok then solve (level + 1);
        pop_all ()
      end
    done
  in
  (try
     check_budget ();
     if not (!contradiction || domain_empty) then solve 0
   with Stop cause ->
     exhausted :=
       Some
         (match budget with
         | Some b -> Budget.exhaustion b cause
         | None -> assert false));
  let entries = ref [] in
  for s = !nslots - 1 downto 0 do
    match !witnesses.(s) with
    | Some (o, c) -> entries := { outcome = o; candidates = !counts.(s); witness = c } :: !entries
    | None -> ()
  done;
  let entries = List.sort (fun a b -> compare a.outcome b.outcome) !entries in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let log10_naive_space = Event.log10_naive_space events in
  let stats =
    {
      events = n;
      accepted = !accepted;
      decisions = !decisions;
      propagations = !propagations;
      conflicts = !conflicts;
      forced = !forced;
      memo_hits = !memo_hits;
      distinct_keys = Hashtbl.length key_tbl;
      log10_naive_space;
      naive_space = Event.naive_space_of_log10 log10_naive_space;
      elapsed_s;
      candidates_per_sec =
        (if elapsed_s > 0.0 then float_of_int !accepted /. elapsed_s else 0.0);
      exhausted = !exhausted;
    }
  in
  { stats; entries }

let outcome_set ?window ?budget t family =
  List.map (fun e -> e.outcome) (run ?window ?budget t family).entries
