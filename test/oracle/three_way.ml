(* Solver = generate-and-prune = operational, in one verdict. The solver
   and the oracle enumeration walk the same decision tree, so beyond equal
   outcome sets against the operational machine they must accept the same
   number of candidates per outcome. *)

module D = Memrel_axiom.Differential

type t = {
  report : D.report;  (** solver vs operational *)
  generate_stats : Generate.stats;
  counts_agree : bool;
      (** generate and solver produced identical (outcome, candidate
          count) lists — leaf-set equality, not just outcome equality *)
  agree : bool;  (** [report.agree && counts_agree] *)
}

let run ?(window = 8) ?max_states ?por t family =
  let g = Generate.run ~window t family in
  let report = D.run ~window ?max_states ?por t family in
  let counted =
    List.map (fun (e : Generate.entry) -> (e.Generate.outcome, e.Generate.candidates))
      g.Generate.entries
  in
  let counts_agree = counted = report.D.axiomatic in
  { report; generate_stats = g.Generate.stats; counts_agree; agree = report.D.agree && counts_agree }
