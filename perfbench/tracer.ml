(* In-memory span recorder for the benchmark's traced runs.

   A span is opened with [enter] and closed with [leave] around one call
   into a layer's public function. Per-layer self time (a span's duration
   minus the time its child spans cover) and call counts are accumulated
   exactly for every span; the span log written as JSONL keeps every span
   of a layer whose [keep_every] is 1 and one in [keep_every] otherwise, so
   a pass over millions of states still writes a bounded file. With tracing
   off, [enter]/[leave] are a branch each — the untraced twin of a pass
   runs the same code. *)

let on = ref false

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let max_layers = 64
let names = Array.make max_layers ""
let keep = Array.make max_layers 1
let self_ns = Array.make max_layers 0
let calls = Array.make max_layers 0
let n_layers = ref 0

let layer ?(keep_every = 1) name =
  let rec find i =
    if i >= !n_layers then begin
      if i >= max_layers then invalid_arg "Tracer.layer: too many layers";
      names.(i) <- name;
      keep.(i) <- keep_every;
      incr n_layers;
      i
    end
    else if names.(i) = name then i
    else find (i + 1)
  in
  find 0

(* open-span stack *)
let max_depth = 32
let st_layer = Array.make max_depth 0
let st_start = Array.make max_depth 0
let st_child = Array.make max_depth 0
let st_id = Array.make max_depth 0
let depth = ref 0
let next_id = ref 1
let request_id = ref 0

(* the kept-span log: six ints per span *)
let log = ref (Array.make (6 * 4096) 0)
let log_len = ref 0

let push_log id parent rid l start stop =
  let a = !log in
  if !log_len + 6 > Array.length a then begin
    let b = Array.make (2 * Array.length a) 0 in
    Array.blit a 0 b 0 !log_len;
    log := b
  end;
  let a = !log and i = !log_len in
  a.(i) <- id;
  a.(i + 1) <- parent;
  a.(i + 2) <- rid;
  a.(i + 3) <- l;
  a.(i + 4) <- start;
  a.(i + 5) <- stop;
  log_len := i + 6

let open_at l start =
  let d = !depth in
  if d >= max_depth then invalid_arg "Tracer.enter: spans nested too deep";
  st_layer.(d) <- l;
  st_child.(d) <- 0;
  st_id.(d) <- !next_id;
  incr next_id;
  depth := d + 1;
  st_start.(d) <- start

let close_at stop =
  let d = !depth - 1 in
  depth := d;
  let l = st_layer.(d) and start = st_start.(d) in
  let dur = stop - start in
  self_ns.(l) <- self_ns.(l) + dur - st_child.(d);
  calls.(l) <- calls.(l) + 1;
  let parent = if d > 0 then st_id.(d - 1) else 0 in
  if d > 0 then st_child.(d - 1) <- st_child.(d - 1) + dur;
  if keep.(l) = 1 || calls.(l) mod keep.(l) = 0 || d = 0 then
    push_log st_id.(d) parent !request_id l start stop;
  dur - st_child.(d)

let enter l = if !on then open_at l (now_ns ())

(* Close the innermost span; its self time in ns (0 with tracing off). *)
let leave () = if !on then close_at (now_ns ()) else 0

(* Close the innermost span and open a sibling at the same instant, so back
   to back calls into two layers leave no untimed gap between their spans.
   Returns the closed span's self time in ns, as [leave]. *)
let switch l =
  if !on then begin
    let now = now_ns () in
    let self = close_at now in
    open_at l now;
    self
  end
  else 0

(* Run [f] with tracing switched on and every total reset, returning [f]'s
   value and the root span's wall in seconds. *)
let traced root f =
  Array.fill self_ns 0 max_layers 0;
  Array.fill calls 0 max_layers 0;
  on := true;
  let t0 = now_ns () in
  enter root;
  let v = Fun.protect ~finally:(fun () -> ignore (leave ()); on := false) f in
  (v, float_of_int (now_ns () - t0) /. 1e9)

(* [f] with tracing off, timed. *)
let untraced f =
  let t0 = now_ns () in
  let v = f () in
  (v, float_of_int (now_ns () - t0) /. 1e9)

let self_s l = float_of_int self_ns.(l) /. 1e9
let calls_of l = calls.(l)

(* Self time of [l] in the last traced pass with that pass's tracing
   overhead [overhead_s] (its traced wall minus its untraced wall) taken
   out, shared over the pass's spans: the recorder costs about the same per
   span, however long the span. *)
let corrected_self_s ~overhead_s l =
  let spans = Array.fold_left ( + ) 0 calls in
  self_s l -. (overhead_s *. float_of_int calls.(l) /. float_of_int (max 1 spans))

let write_jsonl file =
  let oc = open_out file in
  let a = !log in
  let i = ref 0 in
  while !i < !log_len do
    Printf.fprintf oc
      "{\"id\":%d,\"parent\":%d,\"request\":%d,\"name\":%S,\"start_ns\":%d,\"end_ns\":%d}\n"
      a.(!i) a.(!i + 1) a.(!i + 2) names.(a.(!i + 3)) a.(!i + 4) a.(!i + 5);
    i := !i + 6
  done;
  close_out oc
