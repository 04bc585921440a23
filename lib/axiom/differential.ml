module Model = Memrel_memmodel.Model
module Litmus = Memrel_machine.Litmus

type disagreement = {
  outcome : Litmus.outcome;
  axiomatic : bool;
  operational : bool;
  witness : string option;
}

type report = {
  test : string;
  family : Model.family;
  window : int;
  axiomatic : (Litmus.outcome * int) list;
  operational : Litmus.outcome list;
  agree : bool;
  partial : bool;
  disagreements : disagreement list;
  stats : Solver.stats;
  operational_states : int;
}

let standard_families =
  [ Model.Sequential_consistency; Model.Total_store_order; Model.Partial_store_order;
    Model.Weak_ordering ]

(* the corpus uses locations 0 = x, 1 = y; beyond that keep the raw index *)
let loc_name l =
  if l = Litmus.x then "x" else if l = Litmus.y then "y" else Printf.sprintf "m%d" l

let run ?(window = 8) ?max_states ?por ?budget (t : Litmus.t) family =
  let r = Solver.run ~window ?budget t family in
  let axiomatic =
    List.map (fun (e : Solver.entry) -> (e.Solver.outcome, e.Solver.candidates)) r.Solver.entries
  in
  let opr, _ = Litmus.run_exhaustive ~window ?max_states ?por t family in
  let operational = Memrel_machine.Enumerate.outcome_set opr in
  (* a partial axiomatic run covers a subset of the allowed outcomes — it
     can honestly witness "allowed", never "forbidden", so the comparison
     is refused rather than reported as disagreement (the PR5 contract) *)
  let partial =
    r.Solver.stats.Solver.exhausted <> None
    || opr.Memrel_machine.Enumerate.exhausted <> None
  in
  let witness_of o =
    List.find_opt (fun (e : Solver.entry) -> e.Solver.outcome = o) r.Solver.entries
    |> Option.map (fun (e : Solver.entry) -> Candidate.describe ~loc_name e.Solver.witness)
  in
  let disagreements =
    if partial then []
    else
      List.filter_map
        (fun (o, _) ->
          if List.mem o operational then None
          else
            Some { outcome = o; axiomatic = true; operational = false; witness = witness_of o })
        axiomatic
      @ List.filter_map
          (fun o ->
            if List.mem_assoc o axiomatic then None
            else Some { outcome = o; axiomatic = false; operational = true; witness = None })
          operational
  in
  {
    test = t.Litmus.name;
    family;
    window;
    axiomatic;
    operational;
    agree = (not partial) && disagreements = [];
    partial;
    disagreements;
    stats = r.Solver.stats;
    operational_states = opr.Memrel_machine.Enumerate.terminals;
  }

let outcome_to_string o =
  String.concat " " (List.map (fun (name, v) -> Printf.sprintf "%s=%d" name v) o)

let describe r =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf "%s under %s: %s (%d axiomatic = %d operational outcomes)\n" r.test
       (Model.family_name r.family)
       (if r.partial then "PARTIAL (comparison refused)"
        else if r.agree then "agree"
        else "DISAGREE")
       (List.length r.axiomatic) (List.length r.operational));
  List.iter
    (fun d ->
      Buffer.add_string buf
        (Printf.sprintf "  %s: %s\n" (outcome_to_string d.outcome)
           (if d.axiomatic then "axiomatically allowed, operationally unreachable"
            else "operationally reachable, axiomatically forbidden"));
      Option.iter
        (fun w ->
          String.split_on_char '\n' w
          |> List.iter (fun line -> Buffer.add_string buf ("    " ^ line ^ "\n")))
        d.witness)
    r.disagreements;
  Buffer.contents buf
