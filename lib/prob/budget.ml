type cause = Deadline | Work | Memory

type exhaustion = { cause : cause; work_done : int; elapsed_s : float }

type t = {
  started : float;
  deadline_s : float option;
  max_work : int option;
  max_mem_bytes : int option;
  work : int Atomic.t;
  next_sample : int Atomic.t;  (* work count at which the heap is next sampled *)
}

let create ?deadline_s ?max_work ?max_mem_bytes () =
  let nonneg name = function
    | Some v when v < 0 -> invalid_arg (Printf.sprintf "Budget.create: %s must be nonnegative" name)
    | _ -> ()
  in
  (match deadline_s with
   | Some d when d < 0.0 -> invalid_arg "Budget.create: deadline_s must be nonnegative"
   | _ -> ());
  nonneg "max_work" max_work;
  nonneg "max_mem_bytes" max_mem_bytes;
  { started = Unix.gettimeofday (); deadline_s; max_work; max_mem_bytes; work = Atomic.make 0;
    next_sample = Atomic.make 0 }

let spend t n = ignore (Atomic.fetch_and_add t.work n)

let work_done t = Atomic.get t.work

let elapsed_s t = Unix.gettimeofday () -. t.started

let word_bytes = Sys.word_size / 8

let sample_every = 256

(* major-heap size in bytes. Gc.quick_stat walks nothing but costs about
   1.5 us (it builds the whole stat record), as much as expanding a state,
   so [check] samples it once per [sample_every] work units while the heap
   stays under the watermark, and at every check once it is over (so that
   a re-check after a collection sees the heap shrink). *)
let heap_bytes () = (Gc.quick_stat ()).Gc.heap_words * word_bytes

let over_watermark t m =
  let w = Atomic.get t.work in
  w >= Atomic.get t.next_sample
  && (heap_bytes () >= m || (Atomic.set t.next_sample (w + sample_every); false))

let check t =
  match t.max_work with
  | Some w when Atomic.get t.work >= w -> Some Work
  | _ -> (
    match t.deadline_s with
    | Some d when Unix.gettimeofday () -. t.started >= d -> Some Deadline
    | _ -> (
      match t.max_mem_bytes with
      | Some m when over_watermark t m -> Some Memory
      | _ -> None))

let exhaustion t cause = { cause; work_done = work_done t; elapsed_s = elapsed_s t }

let cause_to_string = function
  | Deadline -> "deadline"
  | Work -> "work cap"
  | Memory -> "memory watermark"

let describe e =
  Printf.sprintf "%s after %.2fs (%d work unit%s done)" (cause_to_string e.cause) e.elapsed_s
    e.work_done
    (if e.work_done = 1 then "" else "s")
