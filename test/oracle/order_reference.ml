(* The seed Order: identical closure maintenance, but push copies the whole
   reachability store and pop swaps it back — O(n * words) per search node
   regardless of how little the node changed. The trail-based
   {!Memrel_axiom.Order} is randomized-tested against it. *)

let bpw = Sys.int_size

type t = {
  n : int;
  words : int;
  mutable reach : int array;
  mutable saved : int array list;
  mutable rejections : int;
}

let create n =
  if n < 0 || n > Memrel_axiom.Order.max_vertices then
    invalid_arg (Printf.sprintf "Order_reference.create: %d vertices" n);
  let words = max 1 ((n + bpw - 1) / bpw) in
  { n; words; reach = Array.make (max 1 (n * words)) 0; saved = []; rejections = 0 }

let reaches t u v = t.reach.((u * t.words) + (v / bpw)) land (1 lsl (v mod bpw)) <> 0

let add t u v =
  if u = v || reaches t v u then begin
    t.rejections <- t.rejections + 1;
    false
  end
  else begin
    let words = t.words and reach = t.reach in
    let closure = Array.make words 0 in
    let base_v = v * words in
    for k = 0 to words - 1 do
      closure.(k) <- reach.(base_v + k)
    done;
    closure.(v / bpw) <- closure.(v / bpw) lor (1 lsl (v mod bpw));
    let uw = u / bpw and ub = 1 lsl (u mod bpw) in
    for w = 0 to t.n - 1 do
      let base = w * words in
      if w = u || reach.(base + uw) land ub <> 0 then
        for k = 0 to words - 1 do
          reach.(base + k) <- reach.(base + k) lor closure.(k)
        done
    done;
    true
  end

let push t = t.saved <- Array.copy t.reach :: t.saved

let pop t =
  match t.saved with
  | [] -> invalid_arg "Order_reference.pop: no snapshot"
  | r :: rest ->
    t.reach <- r;
    t.saved <- rest

let rejections t = t.rejections
