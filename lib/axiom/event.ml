module Op = Memrel_memmodel.Op
module Instr = Memrel_machine.Instr

type dir = R | W | U

type t = { id : int; thread : int; index : int; dir : dir; loc : int }

let is_read e = match e.dir with R | U -> true | W -> false
let is_write e = match e.dir with W | U -> true | R -> false
let same_loc a b = a.loc = b.loc
let same_thread a b = a.thread = b.thread

let kinds e = match e.dir with R -> [ Op.LD ] | W -> [ Op.ST ] | U -> [ Op.LD; Op.ST ]

let dir_to_string = function R -> "R" | W -> "W" | U -> "U"

let label e = Printf.sprintf "e%d" e.id

let describe ?(loc_name = fun l -> Printf.sprintf "m%d" l) e =
  Printf.sprintf "e%d: %s %s @%d" e.id (dir_to_string e.dir) (loc_name e.loc) e.index

let of_programs programs =
  let events = ref [] and id = ref 0 in
  List.iteri
    (fun thread prog ->
      Array.iteri
        (fun index ins ->
          let mk dir loc =
            events := { id = !id; thread; index; dir; loc } :: !events;
            incr id
          in
          match ins with
          | Instr.Load { loc; _ } -> mk R loc
          | Instr.Store { loc; _ } -> mk W loc
          | Instr.Rmw { loc; _ } -> mk U loc
          | Instr.Binop _ | Instr.Fence _ -> ())
        prog)
    programs;
  Array.of_list (List.rev !events)

let locations events =
  let locs = ref [] in
  Array.iter (fun e -> if not (List.mem e.loc !locs) then locs := e.loc :: !locs) events;
  List.sort compare !locs

(* |co permutations| x |rf assignments| in log space: the linear-space
   product of float factorials overflows to infinity around 171 events at
   one location, and a solver-scale event graph can get there. *)
let log10_naive_space events =
  let log10_factorial m =
    let acc = ref 0.0 in
    for k = 2 to m do
      acc := !acc +. log10 (float_of_int k)
    done;
    !acc
  in
  let locs = locations events in
  let writes_at loc =
    Array.to_list events |> List.filter (fun e -> is_write e && e.loc = loc)
  in
  let co =
    List.fold_left (fun acc loc -> acc +. log10_factorial (List.length (writes_at loc))) 0.0
      locs
  in
  Array.fold_left
    (fun acc e ->
      if is_read e then
        let others = List.length (List.filter (fun w -> w.id <> e.id) (writes_at e.loc)) in
        acc +. log10 (float_of_int (1 + others))
      else acc)
    co events

(* exact for the sizes a human reads off a report, saturating (never
   infinity/nan) beyond float range *)
let naive_space_of_log10 lg = if lg > 308.0 then max_float else 10.0 ** lg
