(* Conflict-driven enumeration of allowed candidate executions.

   Same decision tree as the generate-and-prune enumeration kept as its
   test oracle — coherence order per location slot by slot (locations in
   sorted order, remaining writes in ascending-id order), then a
   reads-from source per read (initial value first, then writers
   ascending) — so the two visit the same set of leaves and their
   accepted-candidate counts are directly comparable. What changes is
   everything around the tree:

   - acyclicity propagates through the trail-based {!Order} (per-word undo
     records instead of whole-store snapshots), and an edge only touches
     the instances watching its (communication kind x internal) class;
   - root propagation runs a fixpoint before search: rf domains are
     filtered against the static closures, singleton domains become forced
     assignments installed as level-0 edges, and coherence edges any
     instance's closure already implies are installed into every instance
     and recorded in a union-find {!Relations} layer, which prunes the
     permutation enumeration via must-precede tables;
   - a rejected edge is explained: a breadth-first search over the
     installed edges of the rejecting instance recovers one cycle and the
     union of the decision levels its edges depend on becomes the conflict
     set, letting the search backjump over decision levels that provably
     did not contribute;
   - leaves are memoized: an accepted candidate's outcome is a function of
     its rf vector and each location's coherence-maximal write alone
     (register values are thread-local dataflow over rf; final memory is
     the co-last write's value), so when those fit one native int the
     leaf's outcome is a hash probe, not a candidate materialization.

   Backjumping over an ALL-solutions enumeration needs one extra care: a
   conflict set licenses skipping a level's remaining values only while no
   solution has been found below it (a solution depends on every decision
   above it, so once one is seen the level must be exhausted
   chronologically). With that guard only leafless subtrees are skipped
   and the leaf set — hence every outcome's candidate count — is exactly
   generate-and-prune's. *)

module Semantics = Memrel_machine.Semantics
module Litmus = Memrel_machine.Litmus
module Budget = Memrel_prob.Budget

type stats = {
  events : int;
  accepted : int;
  decisions : int;
  propagations : int;
  conflicts : int;
  backjumps : int;
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

type verdict = Solution | Dead of int

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
  (* permanent edges (static + root-forced), per instance, for the conflict
     explainer's path search *)
  let static_adj = Array.init norders (fun _ -> Array.make (max n 1) []) in
  Array.iteri
    (fun oi (inst : Axioms.instance) ->
      List.iter
        (fun (u, v) ->
          if not (Order.reaches orders.(oi) u v) then
            if Order.add orders.(oi) u v then
              static_adj.(oi).(u) <- v :: static_adj.(oi).(u)
            else
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
  let co_level_start = Array.make (max nlocs 1) 0 in
  let next_level = ref 0 in
  Array.iteri
    (fun li ws ->
      co_level_start.(li) <- !next_level;
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
  (* conflict sets are int bitmasks over decision levels; past one int's
     worth they saturate to "depends on everything" and the search degrades
     to chronological backtracking — sound, just less informed *)
  let cbj = nlevels <= Sys.int_size - 2 in
  let bit l = if cbj then 1 lsl l else -1 in
  let strip l cs = if cbj then cs land lnot (1 lsl l) else -1 in
  let co_prefix_mask =
    Array.mapi
      (fun li ws ->
        Array.init (Array.length ws) (fun pos ->
            if cbj then ((1 lsl (pos + 1)) - 1) lsl co_level_start.(li) else -1))
      writes_at
  in
  let co_full_mask =
    Array.mapi
      (fun li ws ->
        let m = Array.length ws in
        if not cbj then -1 else if m = 0 then 0 else ((1 lsl m) - 1) lsl co_level_start.(li))
      writes_at
  in
  (* dynamic (decision-installed) edges per instance, per source vertex,
     with their reason masks; lengths rewind through a trail *)
  let dyn_tgt = Array.init norders (fun _ -> Array.init (max n 1) (fun _ -> Array.make 4 0)) in
  let dyn_msk = Array.init norders (fun _ -> Array.init (max n 1) (fun _ -> Array.make 4 0)) in
  let dyn_len = Array.make (norders * max n 1) 0 in
  let dyn_trail = Trail.create () in
  let restore_dyn slot old = dyn_len.(slot) <- old in
  let append_dyn oi u v mask =
    let slot = (oi * n) + u in
    let len = dyn_len.(slot) in
    if len = Array.length dyn_tgt.(oi).(u) then begin
      let grow a =
        let b = Array.make (2 * len) 0 in
        Array.blit a 0 b 0 len;
        b
      in
      dyn_tgt.(oi).(u) <- grow dyn_tgt.(oi).(u);
      dyn_msk.(oi).(u) <- grow dyn_msk.(oi).(u)
    end;
    dyn_tgt.(oi).(u).(len) <- v;
    dyn_msk.(oi).(u).(len) <- mask;
    Trail.save dyn_trail slot len;
    dyn_len.(slot) <- len + 1
  in
  let propagations = ref 0 and conflicts = ref 0 in
  let decisions = ref 0 and backjumps = ref 0 and forced = ref 0 in
  (* conflict analysis: [add u v] was rejected by instance [oi], so [v]
     already reaches [u] through installed edges; one BFS path recovers a
     cycle and the union of its edges' reason masks (static and root edges
     carry mask 0) plus the attempted edge's own mask is the conflict set *)
  let stamp = ref 0 in
  let seen = Array.make (max n 1) 0 in
  let parent = Array.make (max n 1) (-1) in
  let parent_mask = Array.make (max n 1) 0 in
  let queue = Array.make (max n 1) 0 in
  let explain oi u v mask0 =
    incr stamp;
    let s = !stamp in
    seen.(v) <- s;
    queue.(0) <- v;
    let head = ref 0 and tail = ref 1 and found = ref false in
    while (not !found) && !head < !tail do
      let x = queue.(!head) in
      incr head;
      if x = u then found := true
      else begin
        let visit y mask =
          if seen.(y) <> s then begin
            seen.(y) <- s;
            parent.(y) <- x;
            parent_mask.(y) <- mask;
            queue.(!tail) <- y;
            incr tail
          end
        in
        List.iter (fun y -> visit y 0) static_adj.(oi).(x);
        let slot = (oi * n) + x in
        let tgts = dyn_tgt.(oi).(x) and msks = dyn_msk.(oi).(x) in
        for k = 0 to dyn_len.(slot) - 1 do
          visit tgts.(k) msks.(k)
        done
      end
    done;
    if not !found then -1 (* should be unreachable; saturate, stay sound *)
    else begin
      let m = ref mask0 and cur = ref u in
      while !cur <> v do
        m := !m lor parent_mask.(!cur);
        cur := parent.(!cur)
      done;
      !m
    end
  in
  let last_conflict = ref 0 in
  let install com u v mask =
    let ws = watch_for com u v in
    let ok = ref true and k = ref 0 in
    let nw = Array.length ws in
    while !ok && !k < nw do
      let oi = ws.(!k) in
      incr k;
      let ord = orders.(oi) in
      if not (Order.reaches ord u v) then begin
        if Order.add ord u v then begin
          incr propagations;
          append_dyn oi u v mask
        end
        else begin
          incr conflicts;
          last_conflict := explain oi u v mask;
          ok := false
        end
      end
    done;
    !ok
  in
  (* ---- root propagation: forced facts before any decision ---- *)
  let relations = Relations.create n in
  let contradiction = ref false in
  let root_install com u v =
    Array.iter
      (fun oi ->
        if not !contradiction then begin
          let ord = orders.(oi) in
          if not (Order.reaches ord u v) then begin
            if Order.add ord u v then begin
              incr propagations;
              static_adj.(oi).(u) <- v :: static_adj.(oi).(u)
            end
            else contradiction := true
          end
        end)
      (watch_for com u v)
  in
  (* cross-instance co implication is sound here because every discipline's
     instances constrain Co (and Fr) unconditionally: u-before-v in one
     closure then forces the co total order, whose consecutive edges land
     in every other instance at any accepted leaf. Guard it anyway. *)
  let co_uniform =
    Array.for_all
      (fun (inst : Axioms.instance) ->
        inst.Axioms.wants Axioms.Co ~internal:true
        && inst.Axioms.wants Axioms.Co ~internal:false)
      insts
  in
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
  let implied =
    Array.map
      (fun ws ->
        let m = Array.length ws in
        Array.make_matrix (max m 1) (max m 1) false)
      writes_at
  in
  let changed = ref true in
  while !changed && not !contradiction do
    changed := false;
    if co_uniform then
      Array.iteri
        (fun li ws ->
          let m = Array.length ws in
          for i = 0 to m - 1 do
            for j = 0 to m - 1 do
              if i <> j && not implied.(li).(i).(j) && not !contradiction then begin
                let u = ws.(i) and v = ws.(j) in
                if Array.exists (fun oi -> Order.reaches orders.(oi) u v) (watch_for Axioms.Co u v)
                then begin
                  implied.(li).(i).(j) <- true;
                  Relations.order relations u v;
                  incr forced;
                  root_install Axioms.Co u v;
                  changed := true
                end
              end
            done
          done)
        writes_at;
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
            | 0 ->
              Relations.equate relations r (Relations.init relations);
              Array.iter (fun w' -> if w' <> r then root_install Axioms.Fr r w') ws
            | c ->
              let w = ws.(c - 1) in
              Relations.equate relations r w;
              root_install Axioms.Rf w r);
            changed := true
          end
        end)
      reads
  done;
  let domain_empty =
    Array.exists (fun dom -> Array.for_all not dom) feasible
  in
  (* must-precede tables: for each location, which co-mates of a write are
     forced before it — candidates whose predecessors are unplaced are
     skipped without a decision *)
  let prec =
    Array.map
      (fun ws ->
        Array.mapi
          (fun i wi ->
            let l = ref [] in
            Array.iteri
              (fun j wj ->
                if j <> i && Relations.must_precede relations wj wi then l := j :: !l)
              ws;
            !l)
          ws)
      writes_at
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
  let push_all () =
    Array.iter Order.push orders;
    Trail.mark dyn_trail
  in
  let pop_all () =
    Array.iter Order.pop orders;
    Trail.undo dyn_trail ~restore:restore_dyn
  in
  let rec solve level =
    if level = nlevels then begin
      leaf ();
      Solution
    end
    else
      match level_kinds.(level) with
      | Co_level { loc = li; pos } -> solve_co level li pos
      | Rf_level { read = ri } -> solve_rf level ri
  and solve_co level li pos =
    let ws = writes_at.(li) in
    let m = Array.length ws in
    let used = co_used.(li) in
    let conf = ref 0 and sol = ref false and early = ref None in
    let i = ref 0 in
    while !early = None && !i < m do
      let wi = !i in
      incr i;
      if (not used.(wi)) && List.for_all (fun j -> used.(j)) prec.(li).(wi) then begin
        check_budget ();
        incr decisions;
        let w = ws.(wi) in
        push_all ();
        let ok =
          pos = 0
          || install Axioms.Co co_perm.(li).(pos - 1) w co_prefix_mask.(li).(pos)
        in
        if ok then begin
          used.(wi) <- true;
          co_perm.(li).(pos) <- w;
          co_pos.(w) <- pos;
          let r = solve (level + 1) in
          co_pos.(w) <- -1;
          used.(wi) <- false;
          pop_all ();
          match r with
          | Solution -> sol := true
          | Dead cs ->
            if (not !sol) && cs land bit level = 0 then begin
              incr backjumps;
              early := Some cs
            end
            else conf := !conf lor cs
        end
        else begin
          pop_all ();
          conf := !conf lor !last_conflict
        end
      end
    done;
    match !early with
    | Some cs -> Dead cs
    | None -> if !sol then Solution else Dead (strip level !conf)
  and solve_rf level ri =
    let r = reads.(ri) in
    let li = lidx.(r) in
    let ws = writes_at.(li) in
    let m = Array.length ws in
    let dom = feasible.(ri) in
    let conf = ref 0 and sol = ref false and early = ref None in
    let c = ref 0 in
    while !early = None && !c <= m do
      let code = !c in
      incr c;
      if dom.(code) then begin
        check_budget ();
        incr decisions;
        push_all ();
        rf_code.(ri) <- code;
        let frmask = bit level lor co_full_mask.(li) in
        let ok = ref (code = 0 || install Axioms.Rf ws.(code - 1) r (bit level)) in
        if !ok then begin
          let p = ref (match code with 0 -> 0 | _ -> co_pos.(ws.(code - 1)) + 1) in
          while !ok && !p < m do
            let w' = co_perm.(li).(!p) in
            incr p;
            if w' <> r then ok := install Axioms.Fr r w' frmask
          done
        end;
        if !ok then begin
          let res = solve (level + 1) in
          pop_all ();
          match res with
          | Solution -> sol := true
          | Dead cs ->
            if (not !sol) && cs land bit level = 0 then begin
              incr backjumps;
              early := Some cs
            end
            else conf := !conf lor cs
        end
        else begin
          pop_all ();
          conf := !conf lor !last_conflict
        end
      end
    done;
    match !early with
    | Some cs -> Dead cs
    | None -> if !sol then Solution else Dead (strip level !conf)
  in
  (try
     check_budget ();
     if not (!contradiction || domain_empty) then ignore (solve 0)
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
      backjumps = !backjumps;
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
