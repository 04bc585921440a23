(* Reachability rows are multi-word bitsets (bit v of row u = "u reaches
   v"), flattened into one int array, row-major. Backtracking is a trail of
   per-word undo records: [add] saves each word it actually changes, [push]
   opens a trail scope in O(1), [pop] rewinds exactly the touched words —
   the seed implementation copied every row at every search node. *)

let bpw = Sys.int_size

let max_vertices = 1024

type t = {
  n : int;
  words : int;
  reach : int array;
  trail : Trail.t;
  scratch : int array;
  restore : int -> int -> unit;
  mutable rejections : int;
}

let create n =
  if n < 0 || n > max_vertices then
    invalid_arg
      (Printf.sprintf "Order.create: %d vertices (at most %d supported)" n max_vertices);
  let words = max 1 ((n + bpw - 1) / bpw) in
  let reach = Array.make (max 1 (n * words)) 0 in
  {
    n;
    words;
    reach;
    trail = Trail.create ();
    scratch = Array.make words 0;
    restore = (fun slot old -> reach.(slot) <- old);
    rejections = 0;
  }

let reaches t u v = t.reach.((u * t.words) + (v / bpw)) land (1 lsl (v mod bpw)) <> 0

let add t u v =
  if u = v || reaches t v u then begin
    t.rejections <- t.rejections + 1;
    false
  end
  else begin
    (* everything v reaches — and v itself — becomes reachable from u and
       from every vertex that already reaches u. One sweep of word-parallel
       unions; only words that actually change are trailed. *)
    let words = t.words and reach = t.reach and scratch = t.scratch in
    let base_v = v * words in
    for k = 0 to words - 1 do
      scratch.(k) <- reach.(base_v + k)
    done;
    scratch.(v / bpw) <- scratch.(v / bpw) lor (1 lsl (v mod bpw));
    let uw = u / bpw and ub = 1 lsl (u mod bpw) in
    for w = 0 to t.n - 1 do
      let base = w * words in
      if w = u || reach.(base + uw) land ub <> 0 then
        for k = 0 to words - 1 do
          let old = reach.(base + k) in
          let upd = old lor scratch.(k) in
          if upd <> old then begin
            Trail.save t.trail (base + k) old;
            reach.(base + k) <- upd
          end
        done
    done;
    true
  end

let push t = Trail.mark t.trail

let pop t =
  try Trail.undo t.trail ~restore:t.restore
  with Invalid_argument _ -> invalid_arg "Order.pop: no snapshot"

let rejections t = t.rejections
