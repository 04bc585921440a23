open Memrel_axiom
module Semantics = Memrel_machine.Semantics
module Litmus = Memrel_machine.Litmus

type stats = {
  events : int;
  accepted : int;
  co_branches : int;
  rf_branches : int;
  pruned : int;
  log10_naive_space : float;
  naive_space : float;
  pruning_ratio : float;
  elapsed_s : float;
  candidates_per_sec : float;
  exhausted : Memrel_prob.Budget.exhaustion option;
}

let iter ?(window = 8) ?budget (t : Litmus.t) family f =
  let t0 = Unix.gettimeofday () in
  let events = Event.of_programs t.Litmus.programs in
  let n = Array.length events in
  if n > Order.max_vertices then
    invalid_arg
      (Printf.sprintf "Generate.iter: %d events (at most %d supported)" n Order.max_vertices);
  let discipline = Semantics.of_model ~window family in
  let orders =
    List.map
      (fun inst -> (inst, Order.create n))
      (Axioms.instances discipline t.Litmus.programs events)
  in
  (* static edges are suborders of per-thread program order, so installing
     them can never cycle *)
  List.iter
    (fun ((inst : Axioms.instance), ord) ->
      List.iter
        (fun (u, v) ->
          if not (Order.add ord u v) then
            failwith (Printf.sprintf "Generate.iter: static edges of %s cyclic" inst.Axioms.iname))
        inst.Axioms.static_edges)
    orders;
  let static_rejections =
    List.fold_left (fun acc (_, ord) -> acc + Order.rejections ord) 0 orders
  in
  let locs = Event.locations events in
  let ids p = Array.to_list events |> List.filter p |> List.map (fun (e : Event.t) -> e.Event.id) in
  let writes_at loc = ids (fun e -> Event.is_write e && e.Event.loc = loc) in
  let reads = ids Event.is_read in
  let log10_naive_space = Event.log10_naive_space events in
  let push_all () = List.iter (fun (_, ord) -> Order.push ord) orders in
  let pop_all () = List.iter (fun (_, ord) -> Order.pop ord) orders in
  let internal u v = Event.same_thread events.(u) events.(v) in
  (* List.for_all short-circuits on the first rejected edge; that leaves
     some orders partially updated, which is fine — the caller always
     restores the pushed snapshots before trying the next choice *)
  let add_edges edges =
    List.for_all
      (fun (com, u, v) ->
        List.for_all
          (fun ((inst : Axioms.instance), ord) ->
            (not (inst.Axioms.wants com ~internal:(internal u v))) || Order.add ord u v)
          orders)
      edges
  in
  (* budget exhaustion abandons the whole search tree in one unwind; the
     skipped [pop_all]s leave the orders partially updated, which is fine —
     they are discarded with the search *)
  let exception Stop of Memrel_prob.Budget.cause in
  let exhausted = ref None in
  let attempt edges k =
    (match budget with
     | None -> ()
     | Some b -> (
       match Memrel_prob.Budget.check b with Some cause -> raise (Stop cause) | None -> ()));
    push_all ();
    if add_edges edges then k ();
    pop_all ()
  in
  let accepted = ref 0 and co_branches = ref 0 and rf_branches = ref 0 in
  let co_tbl : (int, int list) Hashtbl.t = Hashtbl.create 8 in
  let rf = Array.make (max n 1) None in
  let programs = Array.of_list t.Litmus.programs in
  let leaf () =
    incr accepted;
    (match budget with Some b -> Memrel_prob.Budget.spend b 1 | None -> ());
    f
      { Candidate.events;
        programs;
        initial_mem = t.Litmus.initial_mem;
        rf = Array.copy rf;
        co = List.map (fun loc -> (loc, Option.value ~default:[] (Hashtbl.find_opt co_tbl loc))) locs }
  in
  let co_successors loc w =
    let rec tail = function [] -> [] | x :: rest -> if x = w then rest else tail rest in
    tail (Option.value ~default:[] (Hashtbl.find_opt co_tbl loc))
  in
  let rec choose_rf = function
    | [] -> leaf ()
    | r :: rest ->
      let loc = events.(r).Event.loc in
      let sources = List.filter (fun w -> w <> r) (writes_at loc) in
      List.iter
        (fun source ->
          incr rf_branches;
          rf.(r) <- source;
          let frs =
            List.filter (fun w' -> w' <> r)
              (match source with
              | Some w -> co_successors loc w
              | None -> Option.value ~default:[] (Hashtbl.find_opt co_tbl loc))
          in
          let edges =
            (match source with Some w -> [ (Axioms.Rf, w, r) ] | None -> [])
            @ List.map (fun w' -> (Axioms.Fr, r, w')) frs
          in
          attempt edges (fun () -> choose_rf rest))
        (None :: List.map (fun w -> Some w) sources)
  in
  let rec choose_co = function
    | [] -> choose_rf reads
    | loc :: rest ->
      (* enumerate the total coherence order per location; only consecutive
         edges are installed — transitivity is the closure's job *)
      let rec perm chosen_rev remaining =
        match remaining with
        | [] ->
          Hashtbl.replace co_tbl loc (List.rev chosen_rev);
          choose_co rest;
          Hashtbl.remove co_tbl loc
        | _ ->
          List.iter
            (fun w ->
              incr co_branches;
              let edges =
                match chosen_rev with [] -> [] | prev :: _ -> [ (Axioms.Co, prev, w) ]
              in
              attempt edges (fun () ->
                  perm (w :: chosen_rev) (List.filter (fun x -> x <> w) remaining)))
            remaining
      in
      perm [] (writes_at loc)
  in
  (try
     (match budget with
      | None -> ()
      | Some b -> (
        match Memrel_prob.Budget.check b with Some cause -> raise (Stop cause) | None -> ()));
     choose_co locs
   with Stop cause ->
     exhausted :=
       Some (match budget with Some b -> Memrel_prob.Budget.exhaustion b cause | None -> assert false));
  let pruned =
    List.fold_left (fun acc (_, ord) -> acc + Order.rejections ord) 0 orders
    - static_rejections
  in
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let explored = !co_branches + !rf_branches in
  {
    events = n;
    accepted = !accepted;
    co_branches = !co_branches;
    rf_branches = !rf_branches;
    pruned;
    log10_naive_space;
    naive_space = Event.naive_space_of_log10 log10_naive_space;
    pruning_ratio =
      (if explored = 0 then 0.0 else float_of_int pruned /. float_of_int explored);
    elapsed_s;
    candidates_per_sec =
      (if elapsed_s > 0.0 then float_of_int !accepted /. elapsed_s else 0.0);
    exhausted = !exhausted;
  }

type entry = { outcome : Litmus.outcome; candidates : int; witness : Candidate.t }

type run = { stats : stats; entries : entry list }

let run ?window ?budget t family =
  let tbl : (Litmus.outcome, int * Candidate.t) Hashtbl.t = Hashtbl.create 64 in
  let stats =
    iter ?window ?budget t family (fun c ->
        let o = Candidate.outcome c ~observe:t.Litmus.observe in
        match Hashtbl.find_opt tbl o with
        | Some (count, w) -> Hashtbl.replace tbl o (count + 1, w)
        | None -> Hashtbl.add tbl o (1, c))
  in
  let entries =
    Hashtbl.fold (fun outcome (candidates, witness) acc -> { outcome; candidates; witness } :: acc) tbl []
    |> List.sort (fun a b -> compare a.outcome b.outcome)
  in
  { stats; entries }

let outcome_set ?window ?budget t family =
  List.map (fun e -> e.outcome) (run ?window ?budget t family).entries
