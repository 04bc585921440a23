(* The original printf-built state key, kept as a test oracle: an
   independent, human-readable canonical rendering of a state that the
   packed key must induce the same equivalence as. *)

module State = Memrel_machine.State

let key st =
  let buf = Buffer.create 128 in
  (* zero-valued bindings read identically to absent ones: skip them so the
     key is canonical *)
  Array.iteri
    (fun l v -> if v <> 0 then Buffer.add_string buf (Printf.sprintf "%d:%d;" l v))
    st.State.mem;
  Array.iter
    (fun th ->
      Buffer.add_string buf (Printf.sprintf "|e%d" th.State.executed);
      Array.iteri
        (fun r v -> if v <> 0 then Buffer.add_string buf (Printf.sprintf "r%d=%d;" r v))
        th.State.regs;
      List.iter (fun (l, v) -> Buffer.add_string buf (Printf.sprintf "f%d,%d;" l v)) th.State.fifo;
      Array.iteri
        (fun l vs ->
          if vs <> [] then begin
            Buffer.add_string buf (Printf.sprintf "p%d=" l);
            List.iter (fun v -> Buffer.add_string buf (Printf.sprintf "%d," v)) vs
          end)
        th.State.perloc)
    st.State.threads;
  Buffer.contents buf

(* exhaustive DFS deduplicating on [key]: the oracle the in-RAM
   enumerator's packed-key visited set is checked against *)
let enumerate d st ~observe =
  let visited = Hashtbl.create 1024 and outcomes = Hashtbl.create 16 in
  let terminals = ref 0 in
  let rec go st =
    let k = key st in
    if not (Hashtbl.mem visited k) then begin
      Hashtbl.add visited k ();
      match Memrel_machine.Semantics.transitions d st with
      | [] ->
        incr terminals;
        let o = observe st in
        Hashtbl.replace outcomes o (1 + Option.value ~default:0 (Hashtbl.find_opt outcomes o))
      | ts -> List.iter (fun (_, s) -> go s) ts
    end
  in
  go st;
  ( Hashtbl.length visited,
    !terminals,
    List.sort compare (Hashtbl.fold (fun o n acc -> (o, n) :: acc) outcomes []) )
