module Op = Memrel_memmodel.Op
module Fence = Memrel_memmodel.Fence

type t = { arr : Op.t array; cl : int; cs : int }

let validate arr =
  let cl = ref (-1) and cs = ref (-1) in
  Array.iteri
    (fun i o ->
      if Op.is_critical_load o then
        if !cl >= 0 then invalid_arg "Program: duplicate critical load" else cl := i;
      if Op.is_critical_store o then
        if !cs >= 0 then invalid_arg "Program: duplicate critical store" else cs := i)
    arr;
  if !cl < 0 || !cs < 0 then invalid_arg "Program: missing critical instruction";
  if !cl >= !cs then invalid_arg "Program: critical load must precede critical store";
  { arr; cl = !cl; cs = !cs }

let generate_with_gap ?(p = 0.5) rng ~m ~gap =
  if m < 0 then invalid_arg "Program.generate: m < 0";
  if gap < 0 then invalid_arg "Program.generate_with_gap: gap < 0";
  if not (p >= 0.0 && p <= 1.0) then invalid_arg "Program.generate: p out of [0,1]";
  let plain () = Op.plain (if Memrel_prob.Rng.bernoulli rng p then Op.ST else Op.LD) in
  let arr =
    Array.init (m + gap + 2) (fun i ->
        if i < m then plain ()
        else if i = m then Op.critical_load
        else if i < m + 1 + gap then plain ()
        else Op.critical_store)
  in
  { arr; cl = m; cs = m + gap + 1 }

let generate ?p rng ~m = generate_with_gap ?p rng ~m ~gap:0

let of_kinds ks =
  let m = List.length ks in
  let prefix = Array.of_list (List.map Op.plain ks) in
  let arr = Array.append prefix [| Op.critical_load; Op.critical_store |] in
  { arr; cl = m; cs = m + 1 }

let of_ops ops = validate (Array.of_list ops)

let with_fences ~every ~kind t =
  if every < 1 then invalid_arg "Program.with_fences: every < 1";
  let out = ref [] in
  let since = ref 0 in
  Array.iteri
    (fun i o ->
      out := o :: !out;
      if i < t.cl then begin
        incr since;
        if !since = every then begin
          out := Op.fence kind :: !out;
          since := 0
        end
      end)
    t.arr;
  validate (Array.of_list (List.rev !out))

let length t = Array.length t.arr
let op t i = t.arr.(i)
let ops t = Array.copy t.arr
let critical_load_index t = t.cl
let critical_store_index t = t.cs

let to_string t = String.init (Array.length t.arr) (fun i -> Op.to_char t.arr.(i))
let pp fmt t = Format.pp_print_string fmt (to_string t)
