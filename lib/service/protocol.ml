module Model = Memrel_memmodel.Model
module Budget = Memrel_prob.Budget

let version = 2
let frame_magic = "MRF1"
let max_frame_bytes = 16 * 1024 * 1024

(* -- typed messages ----------------------------------------------------- *)

type estimate_kind =
  | Settling of { gamma : int; p : float; m : int }
  | Shift of { gammas : int array }
  | Joint of { n : int }

type query =
  | Verify of { test : string; family : Model.family; window : int }
  | Enumerate of { test : string; family : Model.family; window : int; por : bool }
  | Axiom of { test : string; family : Model.family; window : int }
  | Estimate of {
      kind : estimate_kind;
      family : Model.family;
      seed : int;
      trials : int;
      target_width : float option;
    }

type limits = {
  deadline_s : float option;
  max_work : int option;
  max_mem_mb : int option;
}

let no_limits = { deadline_s = None; max_work = None; max_mem_mb = None }

type request =
  | Query of query * limits
  | Batch of (query * limits) list
  | Stats
  | Ping
  | Shutdown

type outcome = (string * int) list

type partial_info = { cause : string; work_done : int; elapsed_s : float }

let partial_of_exhaustion (e : Budget.exhaustion) =
  {
    cause = Budget.cause_to_string e.Budget.cause;
    work_done = e.Budget.work_done;
    elapsed_s = e.Budget.elapsed_s;
  }

type payload =
  | Verdict of {
      observed_relaxed : bool;
      expected_relaxed : bool;
      agrees : bool;
      outcomes : int;
      terminals : int;
    }
  | Outcomes of { entries : (outcome * int) list; terminals : int; states : int }
  | Axiom_outcomes of { entries : (outcome * int) list; accepted : int }
  | Estimated of { point : float; lo : float; hi : float; trials : int; target_met : bool }

type result = { payload : payload; partial : partial_info option }

type origin = Computed | Memory_hit | Disk_hit

let origin_to_string = function
  | Computed -> "computed"
  | Memory_hit -> "memory"
  | Disk_hit -> "disk"

type error_code = Bad_request | Unknown_test | Unsupported | Server_error

let error_code_to_string = function
  | Bad_request -> "bad-request"
  | Unknown_test -> "unknown-test"
  | Unsupported -> "unsupported"
  | Server_error -> "server-error"

type cache_stats = {
  entries : int;
  memory_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  disk_errors : int;
  repairs : int;  (** corrupt disk entries recomputed and rewritten *)
}

type server_stats = {
  cache : cache_stats;
  requests : int;
  uptime_s : float;  (** monotonic: wall-clock steps cannot make it negative *)
  workers : int;
  shed : int;  (** connections refused with [Overloaded] at queue capacity *)
  handler_exceptions : int;  (** worker handler exceptions counted, not swallowed *)
  respawns : int;  (** worker domains that died and were respawned *)
  reaped : int;  (** connections closed at a per-frame IO deadline *)
}

type response =
  | Result of { result : result; origin : origin }
  | Results of response list
  | Error of { code : error_code; message : string }
  | Overloaded of { retry_after_s : float }
      (** the worker queue is at capacity: retry after the given delay —
          never a hang, never a silently dropped connection *)
  | Stats_reply of server_stats
  | Pong
  | Bye

(* [response]'s [Error] constructor shadows Stdlib's; re-export the stdlib
   result constructors so unqualified [Ok]/[Error] below mean Stdlib's
   again (type-directed disambiguation handles [response] constructors) *)
type ('a, 'e) std_result = ('a, 'e) Stdlib.result = Ok of 'a | Error of 'e

(* -- binary encoding ----------------------------------------------------
   Big-endian fixed-width fields throughout (the Snapshot container's
   convention). Every integer travels as a two's-complement i64, floats as
   their IEEE 754 bit pattern, strings as u16 length + bytes, lists as a
   u32 count + items. Deterministic by construction: equal values encode to
   equal bytes, which is what the cache's byte-identity contract rests
   on. *)

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt

let add_u8 buf v = Buffer.add_char buf (Char.chr (v land 0xff))

let add_u16 buf v =
  add_u8 buf (v lsr 8);
  add_u8 buf v

let add_u32 buf v =
  for shift = 3 downto 0 do
    add_u8 buf (v lsr (8 * shift))
  done

let add_i64 buf v =
  let v = Int64.of_int v in
  for shift = 7 downto 0 do
    add_u8 buf (Int64.to_int (Int64.shift_right_logical v (8 * shift)))
  done

let add_f64 buf v =
  let bits = Int64.bits_of_float v in
  for shift = 7 downto 0 do
    add_u8 buf (Int64.to_int (Int64.shift_right_logical bits (8 * shift)))
  done

let add_bool buf v = add_u8 buf (if v then 1 else 0)

let add_string buf s =
  if String.length s > 0xffff then invalid_arg "Protocol: string too long";
  add_u16 buf (String.length s);
  Buffer.add_string buf s

let add_opt add buf = function
  | None -> add_u8 buf 0
  | Some v ->
    add_u8 buf 1;
    add buf v

let add_list add buf xs =
  add_u32 buf (List.length xs);
  List.iter (add buf) xs

type cursor = { data : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.data then fail "truncated message (need %d bytes at %d)" n c.pos

let get_u8 c =
  need c 1;
  let v = Char.code c.data.[c.pos] in
  c.pos <- c.pos + 1;
  v

let get_u16 c =
  let hi = get_u8 c in
  let lo = get_u8 c in
  (hi lsl 8) lor lo

let get_u32 c =
  let v = ref 0 in
  for _ = 1 to 4 do
    v := (!v lsl 8) lor get_u8 c
  done;
  !v

let get_i64 c =
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 c))
  done;
  Int64.to_int !v

let get_f64 c =
  let v = ref 0L in
  for _ = 1 to 8 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get_u8 c))
  done;
  Int64.float_of_bits !v

let get_bool c =
  match get_u8 c with
  | 0 -> false
  | 1 -> true
  | v -> fail "bad boolean byte %d" v

let get_string c =
  let n = get_u16 c in
  need c n;
  let s = String.sub c.data c.pos n in
  c.pos <- c.pos + n;
  s

let get_opt get c = match get_u8 c with 0 -> None | 1 -> Some (get c) | v -> fail "bad option byte %d" v

let get_list get c =
  let n = get_u32 c in
  if n > 1_000_000 then fail "implausible list length %d" n;
  List.init n (fun _ -> get c)

(* families: Custom carries a closure-bearing matrix and cannot travel *)

let add_family buf f =
  add_u8 buf
    (match f with
     | Model.Sequential_consistency -> 0
     | Model.Total_store_order -> 1
     | Model.Partial_store_order -> 2
     | Model.Weak_ordering -> 3
     | Model.Custom -> invalid_arg "Protocol: Custom models cannot be encoded")

let get_family c =
  match get_u8 c with
  | 0 -> Model.Sequential_consistency
  | 1 -> Model.Total_store_order
  | 2 -> Model.Partial_store_order
  | 3 -> Model.Weak_ordering
  | v -> fail "bad model family byte %d" v

let family_token = function
  | Model.Sequential_consistency -> "sc"
  | Model.Total_store_order -> "tso"
  | Model.Partial_store_order -> "pso"
  | Model.Weak_ordering -> "wo"
  | Model.Custom -> "custom"

let add_kind buf = function
  | Settling { gamma; p; m } ->
    add_u8 buf 0;
    add_i64 buf gamma;
    add_f64 buf p;
    add_i64 buf m
  | Shift { gammas } ->
    add_u8 buf 1;
    add_u32 buf (Array.length gammas);
    Array.iter (add_i64 buf) gammas
  | Joint { n } ->
    add_u8 buf 2;
    add_i64 buf n

let get_kind c =
  match get_u8 c with
  | 0 ->
    let gamma = get_i64 c in
    let p = get_f64 c in
    let m = get_i64 c in
    Settling { gamma; p; m }
  | 1 ->
    let n = get_u32 c in
    if n > 64 then fail "implausible gammas length %d" n;
    Shift { gammas = Array.init n (fun _ -> get_i64 c) }
  | 2 -> Joint { n = get_i64 c }
  | v -> fail "bad estimate kind byte %d" v

let add_query buf = function
  | Verify { test; family; window } ->
    add_u8 buf 0;
    add_string buf test;
    add_family buf family;
    add_i64 buf window
  | Enumerate { test; family; window; por } ->
    add_u8 buf 1;
    add_string buf test;
    add_family buf family;
    add_i64 buf window;
    add_bool buf por
  | Axiom { test; family; window } ->
    add_u8 buf 2;
    add_string buf test;
    add_family buf family;
    add_i64 buf window
  | Estimate { kind; family; seed; trials; target_width } ->
    add_u8 buf 3;
    add_kind buf kind;
    add_family buf family;
    add_i64 buf seed;
    add_i64 buf trials;
    add_opt add_f64 buf target_width

let get_query c =
  match get_u8 c with
  | 0 ->
    let test = get_string c in
    let family = get_family c in
    let window = get_i64 c in
    Verify { test; family; window }
  | 1 ->
    let test = get_string c in
    let family = get_family c in
    let window = get_i64 c in
    let por = get_bool c in
    Enumerate { test; family; window; por }
  | 2 ->
    let test = get_string c in
    let family = get_family c in
    let window = get_i64 c in
    Axiom { test; family; window }
  | 3 ->
    let kind = get_kind c in
    let family = get_family c in
    let seed = get_i64 c in
    let trials = get_i64 c in
    let target_width = get_opt get_f64 c in
    Estimate { kind; family; seed; trials; target_width }
  | v -> fail "bad query tag byte %d" v

let add_limits buf l =
  add_opt add_f64 buf l.deadline_s;
  add_opt add_i64 buf l.max_work;
  add_opt add_i64 buf l.max_mem_mb

let get_limits c =
  let deadline_s = get_opt get_f64 c in
  let max_work = get_opt get_i64 c in
  let max_mem_mb = get_opt get_i64 c in
  { deadline_s; max_work; max_mem_mb }

let encode_request r =
  let buf = Buffer.create 64 in
  add_u8 buf version;
  (match r with
   | Query (q, l) ->
     add_u8 buf 0;
     add_query buf q;
     add_limits buf l
   | Batch items ->
     add_u8 buf 1;
     add_list
       (fun buf (q, l) ->
         add_query buf q;
         add_limits buf l)
       buf items
   | Stats -> add_u8 buf 2
   | Ping -> add_u8 buf 3
   | Shutdown -> add_u8 buf 4);
  Buffer.contents buf

let decode_request s : (request, string) std_result =
  try
    let c = { data = s; pos = 0 } in
    let v = get_u8 c in
    if v <> version then fail "protocol version %d (this build speaks %d)" v version;
    let r =
      match get_u8 c with
      | 0 ->
        let q = get_query c in
        let l = get_limits c in
        Query (q, l)
      | 1 ->
        Batch
          (get_list
             (fun c ->
               let q = get_query c in
               let l = get_limits c in
               (q, l))
             c)
      | 2 -> Stats
      | 3 -> Ping
      | 4 -> Shutdown
      | v -> fail "bad request tag byte %d" v
    in
    if c.pos <> String.length s then fail "trailing bytes after request";
    Ok r
  with Decode_error m -> Error m

(* results: the cacheable portion of a response, encoded independently so
   a cache hit can be spliced into a response frame without re-encoding *)

let add_outcome buf (o : outcome) = add_list (fun buf (n, v) -> add_string buf n; add_i64 buf v) buf o

let get_outcome c : outcome = get_list (fun c -> let n = get_string c in (n, get_i64 c)) c

let add_entries buf entries =
  add_list (fun buf (o, k) -> add_outcome buf o; add_i64 buf k) buf entries

let get_entries c = get_list (fun c -> let o = get_outcome c in (o, get_i64 c)) c

let add_partial buf p =
  add_string buf p.cause;
  add_i64 buf p.work_done;
  add_f64 buf p.elapsed_s

let get_partial c =
  let cause = get_string c in
  let work_done = get_i64 c in
  let elapsed_s = get_f64 c in
  { cause; work_done; elapsed_s }

let add_payload buf = function
  | Verdict { observed_relaxed; expected_relaxed; agrees; outcomes; terminals } ->
    add_u8 buf 0;
    add_bool buf observed_relaxed;
    add_bool buf expected_relaxed;
    add_bool buf agrees;
    add_i64 buf outcomes;
    add_i64 buf terminals
  | Outcomes { entries; terminals; states } ->
    add_u8 buf 1;
    add_entries buf entries;
    add_i64 buf terminals;
    add_i64 buf states
  | Axiom_outcomes { entries; accepted } ->
    add_u8 buf 2;
    add_entries buf entries;
    add_i64 buf accepted
  | Estimated { point; lo; hi; trials; target_met } ->
    add_u8 buf 3;
    add_f64 buf point;
    add_f64 buf lo;
    add_f64 buf hi;
    add_i64 buf trials;
    add_bool buf target_met

let get_payload c =
  match get_u8 c with
  | 0 ->
    let observed_relaxed = get_bool c in
    let expected_relaxed = get_bool c in
    let agrees = get_bool c in
    let outcomes = get_i64 c in
    let terminals = get_i64 c in
    Verdict { observed_relaxed; expected_relaxed; agrees; outcomes; terminals }
  | 1 ->
    let entries = get_entries c in
    let terminals = get_i64 c in
    let states = get_i64 c in
    Outcomes { entries; terminals; states }
  | 2 ->
    let entries = get_entries c in
    let accepted = get_i64 c in
    Axiom_outcomes { entries; accepted }
  | 3 ->
    let point = get_f64 c in
    let lo = get_f64 c in
    let hi = get_f64 c in
    let trials = get_i64 c in
    let target_met = get_bool c in
    Estimated { point; lo; hi; trials; target_met }
  | v -> fail "bad payload tag byte %d" v

let encode_result r =
  let buf = Buffer.create 64 in
  add_payload buf r.payload;
  add_opt add_partial buf r.partial;
  Buffer.contents buf

let decode_result_cursor c =
  let payload = get_payload c in
  let partial = get_opt get_partial c in
  { payload; partial }

let decode_result s =
  try
    let c = { data = s; pos = 0 } in
    let r = decode_result_cursor c in
    if c.pos <> String.length s then fail "trailing bytes after result";
    Ok r
  with Decode_error m -> Error m

let add_error_code buf code =
  add_u8 buf
    (match code with Bad_request -> 0 | Unknown_test -> 1 | Unsupported -> 2 | Server_error -> 3)

let get_error_code c =
  match get_u8 c with
  | 0 -> Bad_request
  | 1 -> Unknown_test
  | 2 -> Unsupported
  | 3 -> Server_error
  | v -> fail "bad error code byte %d" v

let add_origin buf o = add_u8 buf (match o with Computed -> 0 | Memory_hit -> 1 | Disk_hit -> 2)

let get_origin c =
  match get_u8 c with
  | 0 -> Computed
  | 1 -> Memory_hit
  | 2 -> Disk_hit
  | v -> fail "bad origin byte %d" v

let rec add_response buf = function
  | Result { result; origin } ->
    add_u8 buf 0;
    add_origin buf origin;
    add_payload buf result.payload;
    add_opt add_partial buf result.partial
  | Results rs ->
    add_u8 buf 1;
    add_list add_response buf rs
  | Error { code; message } ->
    add_u8 buf 2;
    add_error_code buf code;
    add_string buf message
  | Stats_reply s ->
    add_u8 buf 3;
    add_i64 buf s.cache.entries;
    add_i64 buf s.cache.memory_hits;
    add_i64 buf s.cache.disk_hits;
    add_i64 buf s.cache.misses;
    add_i64 buf s.cache.stores;
    add_i64 buf s.cache.disk_errors;
    add_i64 buf s.cache.repairs;
    add_i64 buf s.requests;
    add_f64 buf s.uptime_s;
    add_i64 buf s.workers;
    add_i64 buf s.shed;
    add_i64 buf s.handler_exceptions;
    add_i64 buf s.respawns;
    add_i64 buf s.reaped
  | Pong -> add_u8 buf 4
  | Bye -> add_u8 buf 5
  | Overloaded { retry_after_s } ->
    add_u8 buf 6;
    add_f64 buf retry_after_s

let rec get_response c =
  match get_u8 c with
  | 0 ->
    let origin = get_origin c in
    let result = decode_result_cursor c in
    Result { result; origin }
  | 1 -> Results (get_list get_response c)
  | 2 ->
    let code = get_error_code c in
    let message = get_string c in
    Error { code; message }
  | 3 ->
    let entries = get_i64 c in
    let memory_hits = get_i64 c in
    let disk_hits = get_i64 c in
    let misses = get_i64 c in
    let stores = get_i64 c in
    let disk_errors = get_i64 c in
    let repairs = get_i64 c in
    let requests = get_i64 c in
    let uptime_s = get_f64 c in
    let workers = get_i64 c in
    let shed = get_i64 c in
    let handler_exceptions = get_i64 c in
    let respawns = get_i64 c in
    let reaped = get_i64 c in
    Stats_reply
      {
        cache = { entries; memory_hits; disk_hits; misses; stores; disk_errors; repairs };
        requests;
        uptime_s;
        workers;
        shed;
        handler_exceptions;
        respawns;
        reaped;
      }
  | 4 -> Pong
  | 5 -> Bye
  | 6 ->
    let retry_after_s = get_f64 c in
    Overloaded { retry_after_s }
  | v -> fail "bad response tag byte %d" v

let encode_response r =
  let buf = Buffer.create 64 in
  add_u8 buf version;
  add_response buf r;
  Buffer.contents buf

(* the server's cache-hit fast path: splice the stored result bytes into a
   response frame verbatim — the client reads exactly the bytes the engine
   produced, so cached and computed responses are byte-identical *)
let encode_result_item ~origin result_bytes =
  let buf = Buffer.create (String.length result_bytes + 2) in
  add_u8 buf 0;
  add_origin buf origin;
  Buffer.add_string buf result_bytes;
  Buffer.contents buf

let encode_result_response ~origin result_bytes =
  let buf = Buffer.create (String.length result_bytes + 3) in
  add_u8 buf version;
  Buffer.add_string buf (encode_result_item ~origin result_bytes);
  Buffer.contents buf

(* item encodings (no version byte) compose under [encode_items_response]:
   the batch path splices per-item bytes — cached or freshly encoded —
   preserving the byte-identity of each spliced result *)
let encode_response_item r =
  let buf = Buffer.create 64 in
  add_response buf r;
  Buffer.contents buf

let encode_items_response items =
  let buf = Buffer.create 256 in
  add_u8 buf version;
  add_u8 buf 1;
  add_u32 buf (List.length items);
  List.iter (Buffer.add_string buf) items;
  Buffer.contents buf

let decode_response s =
  try
    let c = { data = s; pos = 0 } in
    let v = get_u8 c in
    if v <> version then fail "protocol version %d (this build speaks %d)" v version;
    let r = get_response c in
    if c.pos <> String.length s then fail "trailing bytes after response";
    Ok r
  with Decode_error m -> Error m

(* -- framing ------------------------------------------------------------ *)

(* Deadline-bounded frame IO: the server reads and writes every frame
   under a per-frame monotonic deadline, so a client that sends half a
   frame and stalls — or stops draining its socket mid-reply — is reaped
   at the deadline instead of pinning a worker domain forever. *)

type frame_error =
  | Frame_timeout  (** the per-frame deadline expired: reap the connection *)
  | Frame_closed of string  (** the peer vanished mid-frame *)
  | Frame_malformed of string  (** bad magic or an oversized length: answer and hang up *)

let frame_error_to_string = function
  | Frame_timeout -> "frame deadline expired"
  | Frame_closed m | Frame_malformed m -> m

(* wait until [fd] is ready (readable/writable), bounded by a monotonic
   deadline; spurious select wakeups loop back through the time check *)
let rec wait_fd fd ~for_read ~deadline =
  let remaining = deadline -. Clock.now_s () in
  if remaining <= 0. then Stdlib.Error Frame_timeout
  else
    let r, w = if for_read then ([ fd ], []) else ([], [ fd ]) in
    match Unix.select r w [] remaining with
    | [], [], _ -> wait_fd fd ~for_read ~deadline
    | _ -> Stdlib.Ok ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_fd fd ~for_read ~deadline

let rec read_into fd buf pos len ~deadline =
  if len = 0 then Stdlib.Ok ()
  else
    match wait_fd fd ~for_read:true ~deadline with
    | Stdlib.Error _ as e -> e
    | Stdlib.Ok () -> (
      match Unix.read fd buf pos len with
      | 0 -> Stdlib.Error (Frame_closed "connection closed mid-frame")
      | n -> read_into fd buf (pos + n) (len - n) ~deadline
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        read_into fd buf pos len ~deadline
      | exception Unix.Unix_error (e, _, _) -> Stdlib.Error (Frame_closed (Unix.error_message e)))

let read_frame_deadline fd ~deadline_s =
  let deadline = Clock.now_s () +. deadline_s in
  let header = Bytes.create 8 in
  (* the first byte decides between a clean EOF (no frame started) and a
     mid-frame close *)
  let first =
    match wait_fd fd ~for_read:true ~deadline with
    | Stdlib.Error _ as e -> e
    | Stdlib.Ok () -> (
      match Unix.read fd header 0 8 with
      | 0 -> Stdlib.Ok 0
      | n -> Stdlib.Ok n
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        Stdlib.Ok (-1) (* spurious: nothing read yet, retry below *)
      | exception Unix.Unix_error (e, _, _) -> Stdlib.Error (Frame_closed (Unix.error_message e)))
  in
  match first with
  | Stdlib.Error e -> Stdlib.Error e
  | Stdlib.Ok 0 -> Stdlib.Ok None
  | Stdlib.Ok n -> (
    let n = if n < 0 then 0 else n in
    match
      if n = 0 then
        (* retry the header from scratch (still distinguishing EOF) *)
        match read_into fd header 0 8 ~deadline with
        | Stdlib.Ok () -> Stdlib.Ok ()
        | Stdlib.Error _ as e -> e
      else read_into fd header n (8 - n) ~deadline
    with
    | Stdlib.Error e -> Stdlib.Error e
    | Stdlib.Ok () ->
      let magic = Bytes.sub_string header 0 4 in
      if magic <> frame_magic then Stdlib.Error (Frame_malformed "bad frame magic")
      else begin
        let len = ref 0 in
        for i = 4 to 7 do
          len := (!len lsl 8) lor Char.code (Bytes.get header i)
        done;
        if !len > max_frame_bytes then
          Stdlib.Error
            (Frame_malformed (Printf.sprintf "frame of %d bytes exceeds the cap" !len))
        else begin
          let payload = Bytes.create !len in
          match read_into fd payload 0 !len ~deadline with
          | Stdlib.Ok () -> Stdlib.Ok (Some (Bytes.to_string payload))
          | Stdlib.Error e -> Stdlib.Error e
        end
      end)

let write_frame_deadline fd ~deadline_s payload =
  if String.length payload > max_frame_bytes then invalid_arg "Protocol: frame too large";
  let deadline = Clock.now_s () +. deadline_s in
  let header = Buffer.create 8 in
  Buffer.add_string header frame_magic;
  add_u32 header (String.length payload);
  let msg = Bytes.unsafe_of_string (Buffer.contents header ^ payload) in
  let rec loop pos =
    if pos >= Bytes.length msg then Stdlib.Ok ()
    else
      match wait_fd fd ~for_read:false ~deadline with
      | Stdlib.Error _ as e -> e
      | Stdlib.Ok () -> (
        match Unix.write fd msg pos (Bytes.length msg - pos) with
        | n -> loop (pos + n)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
          loop pos
        | exception Unix.Unix_error (e, _, _) ->
          Stdlib.Error (Frame_closed (Unix.error_message e)))
  in
  loop 0

let rec really_write fd s pos len =
  if len > 0 then begin
    let n = Unix.write_substring fd s pos len in
    really_write fd s (pos + n) (len - n)
  end

let write_frame fd payload =
  if String.length payload > max_frame_bytes then invalid_arg "Protocol: frame too large";
  let header = Buffer.create 8 in
  Buffer.add_string header frame_magic;
  add_u32 header (String.length payload);
  let msg = Buffer.contents header ^ payload in
  really_write fd msg 0 (String.length msg)

let rec really_read fd buf pos len =
  if len = 0 then true
  else
    match Unix.read fd buf pos len with
    | 0 -> false
    | n -> really_read fd buf (pos + n) (len - n)

let read_frame fd =
  let header = Bytes.create 8 in
  if not (really_read fd header 0 8) then Ok None
  else begin
    let magic = Bytes.sub_string header 0 4 in
    if magic <> frame_magic then Error "bad frame magic"
    else begin
      let len = ref 0 in
      for i = 4 to 7 do
        len := (!len lsl 8) lor Char.code (Bytes.get header i)
      done;
      if !len > max_frame_bytes then Error (Printf.sprintf "frame of %d bytes exceeds the cap" !len)
      else begin
        let payload = Bytes.create !len in
        if really_read fd payload 0 !len then Ok (Some (Bytes.to_string payload))
        else Error "connection closed mid-frame"
      end
    end
  end

(* -- addresses ----------------------------------------------------------- *)

type address = Unix_path of string | Tcp of string * int

let address_of_string s =
  match String.index_opt s ':' with
  | Some _ when String.length s > 4 && String.sub s 0 4 = "tcp:" -> begin
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | Some i -> begin
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      match int_of_string_opt port with
      | Some p when p > 0 && p < 65536 -> Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
      | _ -> Error (Printf.sprintf "bad TCP port %S" port)
    end
    | None -> Error "tcp address must be tcp:HOST:PORT"
  end
  | _ -> Ok (Unix_path s)

let address_to_string = function
  | Unix_path p -> p
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

(* -- human-readable query language --------------------------------------
   The `memrel query` surface and the README's protocol example:

     verify TEST MODEL [window=W]
     enumerate TEST MODEL [window=W] [por]
     axiom TEST MODEL [window=W] [engine=solver]
     estimate settling MODEL gamma=G [p=P] [m=M] [seed=S] [trials=N] [width=W]
     estimate shift gammas=3,2,5 [seed=S] [trials=N] [width=W]
     estimate joint MODEL n=N [seed=S] [trials=N] [width=W]
*)

let family_of_token s =
  match String.lowercase_ascii s with
  | "sc" -> Ok Model.Sequential_consistency
  | "tso" -> Ok Model.Total_store_order
  | "pso" -> Ok Model.Partial_store_order
  | "wo" -> Ok Model.Weak_ordering
  | _ -> Error (Printf.sprintf "unknown model %S (expected sc|tso|pso|wo)" s)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let parse_query text =
  let tokens =
    String.split_on_char ' ' text |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun t -> t <> "")
  in
  let split_kv tok =
    match String.index_opt tok '=' with
    | Some i -> (String.sub tok 0 i, Some (String.sub tok (i + 1) (String.length tok - i - 1)))
    | None -> (tok, None)
  in
  let kvs rest =
    List.fold_left
      (fun acc tok -> match acc with
        | Error _ -> acc
        | Ok acc ->
          let k, v = split_kv tok in
          Ok ((String.lowercase_ascii k, v) :: acc))
      (Ok []) rest
  in
  let int_kv kvs key default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some None -> Error (Printf.sprintf "%s needs a value (%s=N)" key key)
    | Some (Some v) -> (
      match int_of_string_opt v with
      | Some n -> Ok n
      | None -> Error (Printf.sprintf "bad integer %S for %s" v key))
  in
  let float_kv kvs key default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some None -> Error (Printf.sprintf "%s needs a value (%s=X)" key key)
    | Some (Some v) -> (
      match float_of_string_opt v with
      | Some f -> Ok f
      | None -> Error (Printf.sprintf "bad number %S for %s" v key))
  in
  let width_kv kvs =
    match List.assoc_opt "width" kvs with
    | None -> Ok None
    | Some None -> Error "width needs a value (width=W)"
    | Some (Some v) -> (
      match float_of_string_opt v with
      | Some f -> Ok (Some f)
      | None -> Error (Printf.sprintf "bad number %S for width" v))
  in
  let known kvs allowed =
    match List.find_opt (fun (k, _) -> not (List.mem k allowed)) kvs with
    | Some (k, _) -> Error (Printf.sprintf "unknown parameter %S" k)
    | None -> Ok ()
  in
  let estimate_common kvs =
    let* seed = int_kv kvs "seed" 1 in
    let* trials = int_kv kvs "trials" 100_000 in
    let* target_width = width_kv kvs in
    Ok (seed, trials, target_width)
  in
  match tokens with
  | "verify" :: test :: model :: rest ->
    let* family = family_of_token model in
    let* kvs = kvs rest in
    let* () = known kvs [ "window" ] in
    let* window = int_kv kvs "window" 8 in
    Ok (Verify { test; family; window })
  | "enumerate" :: test :: model :: rest ->
    let* family = family_of_token model in
    let rest, por = List.partition (fun t -> String.lowercase_ascii t <> "por") rest in
    let* kvs = kvs rest in
    let* () = known kvs [ "window" ] in
    let* window = int_kv kvs "window" 8 in
    Ok (Enumerate { test; family; window; por = por <> [] })
  | "axiom" :: test :: model :: rest ->
    let* family = family_of_token model in
    let* kvs = kvs rest in
    let* () = known kvs [ "window"; "engine" ] in
    let* window = int_kv kvs "window" 8 in
    (* the solver is the only axiomatic engine; the token is still accepted
       so scripts written when there were two keep working *)
    let* () =
      match List.assoc_opt "engine" kvs with
      | None | Some (Some "solver") -> Ok ()
      | Some (Some e) -> Error (Printf.sprintf "unknown engine %S (only solver)" e)
      | Some None -> Error "engine needs a value (engine=solver)"
    in
    Ok (Axiom { test; family; window })
  | "estimate" :: "settling" :: model :: rest ->
    let* family = family_of_token model in
    let* kvs = kvs rest in
    let* () = known kvs [ "gamma"; "p"; "m"; "seed"; "trials"; "width" ] in
    let* gamma = int_kv kvs "gamma" 1 in
    let* p = float_kv kvs "p" 0.5 in
    let* m = int_kv kvs "m" 64 in
    let* seed, trials, target_width = estimate_common kvs in
    Ok (Estimate { kind = Settling { gamma; p; m }; family; seed; trials; target_width })
  | "estimate" :: "shift" :: rest ->
    let* kvs = kvs rest in
    let* () = known kvs [ "gammas"; "seed"; "trials"; "width" ] in
    let* gammas =
      match List.assoc_opt "gammas" kvs with
      | None | Some None -> Error "estimate shift needs gammas=G,G,..."
      | Some (Some v) ->
        let parts = String.split_on_char ',' v in
        List.fold_left
          (fun acc part -> match acc with
            | Error _ -> acc
            | Ok acc -> (
              match int_of_string_opt part with
              | Some n -> Ok (n :: acc)
              | None -> Error (Printf.sprintf "bad segment length %S" part)))
          (Ok []) parts
        |> Result.map (fun l -> Array.of_list (List.rev l))
    in
    let* seed, trials, target_width = estimate_common kvs in
    (* the shift process has no memory model: canonicalize the family *)
    Ok
      (Estimate
         { kind = Shift { gammas }; family = Model.Sequential_consistency; seed; trials;
           target_width })
  | "estimate" :: "joint" :: model :: rest ->
    let* family = family_of_token model in
    let* kvs = kvs rest in
    let* () = known kvs [ "n"; "seed"; "trials"; "width" ] in
    let* n = int_kv kvs "n" 2 in
    let* seed, trials, target_width = estimate_common kvs in
    Ok (Estimate { kind = Joint { n }; family; seed; trials; target_width })
  | "estimate" :: kind :: _ ->
    Error (Printf.sprintf "unknown estimate kind %S (settling|shift|joint)" kind)
  | kind :: _ ->
    Error (Printf.sprintf "unknown query kind %S (verify|enumerate|axiom|estimate)" kind)
  | [] -> Error "empty query"

let query_to_string = function
  | Verify { test; family; window } ->
    Printf.sprintf "verify %s %s window=%d" test (family_token family) window
  | Enumerate { test; family; window; por } ->
    Printf.sprintf "enumerate %s %s window=%d%s" test (family_token family) window
      (if por then " por" else "")
  | Axiom { test; family; window } ->
    Printf.sprintf "axiom %s %s window=%d" test (family_token family) window
  | Estimate { kind; family; seed; trials; target_width } ->
    let width = match target_width with None -> "" | Some w -> Printf.sprintf " width=%g" w in
    (match kind with
     | Settling { gamma; p; m } ->
       Printf.sprintf "estimate settling %s gamma=%d p=%g m=%d seed=%d trials=%d%s"
         (family_token family) gamma p m seed trials width
     | Shift { gammas } ->
       Printf.sprintf "estimate shift gammas=%s seed=%d trials=%d%s"
         (String.concat "," (List.map string_of_int (Array.to_list gammas)))
         seed trials width
     | Joint { n } ->
       Printf.sprintf "estimate joint %s n=%d seed=%d trials=%d%s" (family_token family) n seed
         trials width)

(* -- rendering ----------------------------------------------------------- *)

let outcome_to_string (o : outcome) =
  if o = [] then "(empty)"
  else String.concat " " (List.map (fun (n, v) -> Printf.sprintf "%s=%d" n v) o)

let render_partial = function
  | None -> ""
  | Some p ->
    Printf.sprintf " (PARTIAL: %s after %.2fs, %d work units)" p.cause p.elapsed_s p.work_done

let render_result r =
  let partial = render_partial r.partial in
  match r.payload with
  | Verdict { observed_relaxed; expected_relaxed; agrees; outcomes; terminals } ->
    Printf.sprintf "relaxed outcome %s, expected %s — %s (%d outcomes, %d terminals)%s"
      (if observed_relaxed then "OBSERVED" else "not observed")
      (if expected_relaxed then "allowed" else "forbidden")
      (if agrees then "agree" else "MISMATCH")
      outcomes terminals partial
  | Outcomes { entries; terminals; states } ->
    let lines =
      List.map
        (fun (o, k) -> Printf.sprintf "\n    %-30s %6d terminal state%s" (outcome_to_string o) k
            (if k = 1 then "" else "s"))
        entries
    in
    Printf.sprintf "%d outcomes, %d terminals, %d states%s%s" (List.length entries) terminals
      states partial (String.concat "" lines)
  | Axiom_outcomes { entries; accepted } ->
    let lines =
      List.map
        (fun (o, k) -> Printf.sprintf "\n    %-30s %6d candidate%s" (outcome_to_string o) k
            (if k = 1 then "" else "s"))
        entries
    in
    Printf.sprintf "%d outcomes, %d accepted candidates%s%s" (List.length entries) accepted
      partial (String.concat "" lines)
  | Estimated { point; lo; hi; trials; target_met } ->
    Printf.sprintf "%.6f [%.6f, %.6f] over %d trials%s%s" point lo hi trials
      (if target_met then " (target width met)" else "")
      partial

let rec render_response = function
  | Result { result; origin } ->
    Printf.sprintf "[%s] %s" (origin_to_string origin) (render_result result)
  | Results rs ->
    String.concat "\n" (List.map render_response rs)
  | Error { code; message } -> Printf.sprintf "error (%s): %s" (error_code_to_string code) message
  | Overloaded { retry_after_s } ->
    Printf.sprintf "overloaded: retry after %.2fs" retry_after_s
  | Stats_reply s ->
    Printf.sprintf
      "cache: %d entries, %d memory hits, %d disk hits, %d misses, %d stores, %d disk \
       errors, %d repaired\n\
       server: %d requests, %.1fs uptime, %d workers, %d shed, %d handler exceptions, %d \
       respawns, %d reaped"
      s.cache.entries s.cache.memory_hits s.cache.disk_hits s.cache.misses s.cache.stores
      s.cache.disk_errors s.cache.repairs s.requests s.uptime_s s.workers s.shed
      s.handler_exceptions s.respawns s.reaped
  | Pong -> "pong"
  | Bye -> "bye"
