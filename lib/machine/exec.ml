module Rng = Memrel_prob.Rng

type run = {
  final : State.t;
  steps : int;
  trace : Semantics.label list;
}

let run ?(max_steps = 100_000) discipline st rng =
  let rec go st steps trace =
    if steps > max_steps then failwith "Exec.run: step limit exceeded (non-terminating semantics?)";
    match Semantics.enabled discipline st with
    | [] -> { final = st; steps; trace = List.rev trace }
    | labels ->
      let label = List.nth labels (Rng.int rng (List.length labels)) in
      go (Semantics.step discipline st label) (steps + 1) (label :: trace)
  in
  go st 0 []

let estimate_outcome ?(max_steps = 100_000) ~trials discipline st ~observe rng =
  if trials <= 0 then invalid_arg "Exec.estimate_outcome: trials must be positive";
  let counts = Hashtbl.create 16 in
  for _ = 1 to trials do
    let r = run ~max_steps discipline st rng in
    let o = observe r.final in
    Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o))
  done;
  let l = Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [] in
  List.sort (fun (_, a) (_, b) -> compare b a) l
