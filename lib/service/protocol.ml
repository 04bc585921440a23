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
   Each wire type is described once, as a codec: the encoder and decoder
   are built together from the combinators below, so they cannot drift
   apart. Big-endian fixed-width fields throughout (the Snapshot
   container's convention). Every integer travels as a two's-complement
   i64, floats as their IEEE 754 bit pattern, strings as u16 length +
   bytes, lists as a u32 count + items, booleans and options as one byte,
   and a variant as a one-byte tag followed by its constructor's fields.
   Deterministic by construction: equal values encode to equal bytes,
   which is what the cache's byte-identity contract rests on. *)

exception Decode_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Decode_error m)) fmt

type cursor = { data : string; mutable pos : int; mutable depth : int }
type 'a codec = { enc : Buffer.t -> 'a -> unit; dec : cursor -> 'a }

(* step past [n] bytes, returning where they start *)
let take c n =
  let pos = c.pos in
  if pos + n > String.length c.data then fail "truncated message (need %d bytes at %d)" n pos;
  c.pos <- pos + n;
  pos

let u8 = { enc = Buffer.add_uint8; dec = (fun c -> String.get_uint8 c.data (take c 1)) }
let u16 = { enc = Buffer.add_uint16_be; dec = (fun c -> String.get_uint16_be c.data (take c 2)) }

let u32 =
  {
    enc = (fun b v -> Buffer.add_int32_be b (Int32.of_int v));
    dec = (fun c -> Int32.to_int (String.get_int32_be c.data (take c 4)) land 0xffff_ffff);
  }

(* OCaml ints are 63-bit: a wire value outside that range is refused, never
   wrapped *)
let i64 =
  {
    enc = (fun b v -> Buffer.add_int64_be b (Int64.of_int v));
    dec =
      (fun c ->
        let v = String.get_int64_be c.data (take c 8) in
        let i = Int64.to_int v in
        if not (Int64.equal (Int64.of_int i) v) then fail "integer %Ld out of range" v;
        i);
  }

let f64 =
  {
    enc = (fun b v -> Buffer.add_int64_be b (Int64.bits_of_float v));
    dec = (fun c -> Int64.float_of_bits (String.get_int64_be c.data (take c 8)));
  }

let string =
  {
    enc =
      (fun b s ->
        if String.length s > 0xffff then invalid_arg "Protocol: string too long";
        u16.enc b (String.length s);
        Buffer.add_string b s);
    dec =
      (fun c ->
        let n = u16.dec c in
        String.sub c.data (take c n) n);
  }

(* an iso between a type and its wire form *)
let map to_wire of_wire w =
  { enc = (fun b v -> w.enc b (to_wire v)); dec = (fun c -> of_wire (w.dec c)) }

let pair wa wb =
  {
    enc = (fun b (x, y) -> wa.enc b x; wb.enc b y);
    dec =
      (fun c ->
        let x = wa.dec c in
        (x, wb.dec c));
  }

(* a constructor without fields: no bytes *)
let const v = { enc = (fun _ _ -> ()); dec = (fun _ -> v) }

(* a one-byte tag, then the fields of the tagged case: [tag v] is the index
   of the case for [v]'s constructor. Each case is a [map] whose projection
   matches its own constructor only, so the variant codecs below are
   defined with the partial-match warning off. *)
let variant what tag cases =
  {
    enc =
      (fun b v ->
        let i = tag v in
        u8.enc b i;
        cases.(i).enc b v);
    dec =
      (fun c ->
        let i = u8.dec c in
        if i >= Array.length cases then fail "bad %s byte %d" what i;
        cases.(i).dec c);
  }

(* a one-byte enumeration: [values.(i)] travels as byte [i]; a value not in
   the table cannot be encoded *)
let enum what values =
  let index v =
    match Array.find_index (( = ) v) values with
    | Some i -> i
    | None -> invalid_arg ("Protocol: this " ^ what ^ " cannot be encoded")
  in
  variant what index (Array.map const values)

let bool = enum "boolean" [| false; true |]

let option w =
  variant "option" (function None -> 0 | Some _ -> 1) [| const None; map Option.get Option.some w |]

let list ?(max = 1_000_000) w =
  {
    enc = (fun b xs -> u32.enc b (List.length xs); List.iter (w.enc b) xs);
    dec =
      (fun c ->
        let n = u32.dec c in
        if n > max then fail "implausible list length %d" n;
        List.init n (fun _ -> w.dec c));
  }

(* a recursive codec: [f] receives the codec it is defining. Decoding
   refuses to recurse more than [max_depth] levels, so a hostile message
   cannot buy a deep stack and seconds of work with a few bytes a level;
   nothing this build sends nests more than one level. *)
let max_depth = 8

let fix f =
  let rec w =
    lazy
      (f
         {
           enc = (fun b v -> (Lazy.force w).enc b v);
           dec =
             (fun c ->
               if c.depth >= max_depth then fail "nesting deeper than %d levels" max_depth;
               c.depth <- c.depth + 1;
               let v = (Lazy.force w).dec c in
               c.depth <- c.depth - 1;
               v);
         })
  in
  Lazy.force w

(* -- the wire types, one codec each *)

(* families: Custom carries a closure-bearing matrix and cannot travel *)
let families =
  Model.[| Sequential_consistency; Total_store_order; Partial_store_order; Weak_ordering |]

let family = enum "model family" families

let[@warning "-partial-match"] estimate_kind =
  variant "estimate kind"
    (function Settling _ -> 0 | Shift _ -> 1 | Joint _ -> 2)
    [|
      map
        (fun (Settling { gamma; p; m }) -> (gamma, (p, m)))
        (fun (gamma, (p, m)) -> Settling { gamma; p; m })
        (pair i64 (pair f64 i64));
      map
        (fun (Shift { gammas }) -> Array.to_list gammas)
        (fun gammas -> Shift { gammas = Array.of_list gammas })
        (list ~max:64 i64);
      map (fun (Joint { n }) -> n) (fun n -> Joint { n }) i64;
    |]

let[@warning "-partial-match"] query =
  let test_family_window = pair string (pair family i64) in
  variant "query tag"
    (function Verify _ -> 0 | Enumerate _ -> 1 | Axiom _ -> 2 | Estimate _ -> 3)
    [|
      map
        (fun (Verify { test; family; window }) -> (test, (family, window)))
        (fun (test, (family, window)) -> Verify { test; family; window })
        test_family_window;
      map
        (fun (Enumerate { test; family; window; por }) -> ((test, (family, window)), por))
        (fun ((test, (family, window)), por) -> Enumerate { test; family; window; por })
        (pair test_family_window bool);
      map
        (fun (Axiom { test; family; window }) -> (test, (family, window)))
        (fun (test, (family, window)) -> Axiom { test; family; window })
        test_family_window;
      map
        (fun (Estimate { kind; family; seed; trials; target_width }) ->
          (kind, (family, (seed, (trials, target_width)))))
        (fun (kind, (family, (seed, (trials, target_width)))) ->
          Estimate { kind; family; seed; trials; target_width })
        (pair estimate_kind (pair family (pair i64 (pair i64 (option f64)))));
    |]

let limits =
  map
    (fun { deadline_s; max_work; max_mem_mb } -> (deadline_s, (max_work, max_mem_mb)))
    (fun (deadline_s, (max_work, max_mem_mb)) -> { deadline_s; max_work; max_mem_mb })
    (pair (option f64) (pair (option i64) (option i64)))

let[@warning "-partial-match"] request =
  let item = pair query limits in
  variant "request tag"
    (function Query _ -> 0 | Batch _ -> 1 | Stats -> 2 | Ping -> 3 | Shutdown -> 4)
    [|
      map (fun (Query (q, l)) -> (q, l)) (fun (q, l) -> Query (q, l)) item;
      map (fun (Batch items) -> items) (fun items -> Batch items) (list item);
      const Stats;
      const Ping;
      const Shutdown;
    |]

(* results: the cacheable portion of a response, encoded independently so
   a cache hit can be spliced into a response frame without re-encoding *)

let partial =
  map
    (fun { cause; work_done; elapsed_s } -> (cause, (work_done, elapsed_s)))
    (fun (cause, (work_done, elapsed_s)) -> { cause; work_done; elapsed_s })
    (pair string (pair i64 f64))

let[@warning "-partial-match"] payload =
  let outcome_counts = list (pair (list (pair string i64)) i64) in
  variant "payload tag"
    (function Verdict _ -> 0 | Outcomes _ -> 1 | Axiom_outcomes _ -> 2 | Estimated _ -> 3)
    [|
      map
        (fun (Verdict { observed_relaxed; expected_relaxed; agrees; outcomes; terminals }) ->
          (observed_relaxed, (expected_relaxed, (agrees, (outcomes, terminals)))))
        (fun (observed_relaxed, (expected_relaxed, (agrees, (outcomes, terminals)))) ->
          Verdict { observed_relaxed; expected_relaxed; agrees; outcomes; terminals })
        (pair bool (pair bool (pair bool (pair i64 i64))));
      map
        (fun (Outcomes { entries; terminals; states }) -> (entries, (terminals, states)))
        (fun (entries, (terminals, states)) -> Outcomes { entries; terminals; states })
        (pair outcome_counts (pair i64 i64));
      map
        (fun (Axiom_outcomes { entries; accepted }) -> (entries, accepted))
        (fun (entries, accepted) -> Axiom_outcomes { entries; accepted })
        (pair outcome_counts i64);
      map
        (fun (Estimated { point; lo; hi; trials; target_met }) ->
          (point, (lo, (hi, (trials, target_met)))))
        (fun (point, (lo, (hi, (trials, target_met)))) ->
          Estimated { point; lo; hi; trials; target_met })
        (pair f64 (pair f64 (pair f64 (pair i64 bool))));
    |]

let result =
  map
    (fun { payload; partial } -> (payload, partial))
    (fun (payload, partial) -> { payload; partial })
    (pair payload (option partial))

let error_code = enum "error code" [| Bad_request; Unknown_test; Unsupported; Server_error |]
let origin = enum "origin" [| Computed; Memory_hit; Disk_hit |]

let server_stats =
  let cache =
    map
      (fun { entries; memory_hits; disk_hits; misses; stores; disk_errors; repairs } ->
        (entries, (memory_hits, (disk_hits, (misses, (stores, (disk_errors, repairs)))))))
      (fun (entries, (memory_hits, (disk_hits, (misses, (stores, (disk_errors, repairs)))))) ->
        { entries; memory_hits; disk_hits; misses; stores; disk_errors; repairs })
      (pair i64 (pair i64 (pair i64 (pair i64 (pair i64 (pair i64 i64))))))
  in
  map
    (fun { cache; requests; uptime_s; workers; shed; handler_exceptions; respawns; reaped } ->
      (cache, (requests, (uptime_s, (workers, (shed, (handler_exceptions, (respawns, reaped))))))))
    (fun
      (cache, (requests, (uptime_s, (workers, (shed, (handler_exceptions, (respawns, reaped))))))) ->
      { cache; requests; uptime_s; workers; shed; handler_exceptions; respawns; reaped })
    (pair cache (pair i64 (pair f64 (pair i64 (pair i64 (pair i64 (pair i64 i64)))))))

let result_tag = 0
let results_tag = 1

let[@warning "-partial-match"] response =
  fix @@ fun response ->
  variant "response tag"
    (function
      | Result _ -> result_tag
      | Results _ -> results_tag
      | Error _ -> 2
      | Stats_reply _ -> 3
      | Pong -> 4
      | Bye -> 5
      | Overloaded _ -> 6)
    [|
      map
        (fun (Result { result; origin }) -> (origin, result))
        (fun (origin, result) -> Result { result; origin })
        (pair origin result);
      map (fun (Results rs) -> rs) (fun rs -> Results rs) (list response);
      map
        (fun (Error { code; message } : response) -> (code, message))
        (fun (code, message) : response -> Error { code; message })
        (pair error_code string);
      map (fun (Stats_reply s) -> s) (fun s -> Stats_reply s) server_stats;
      const Pong;
      const Bye;
      map
        (fun (Overloaded { retry_after_s }) -> retry_after_s)
        (fun retry_after_s -> Overloaded { retry_after_s })
        f64;
    |]

(* a message is the version byte and a value; a result or a batch item is
   the value alone *)

let encode ~versioned w v =
  let b = Buffer.create 64 in
  if versioned then u8.enc b version;
  w.enc b v;
  Buffer.contents b

let decode ~versioned what w s : (_, string) std_result =
  try
    let c = { data = s; pos = 0; depth = 0 } in
    if versioned then begin
      let v = u8.dec c in
      if v <> version then fail "protocol version %d (this build speaks %d)" v version
    end;
    let x = w.dec c in
    if c.pos <> String.length s then fail "trailing bytes after %s" what;
    Ok x
  with Decode_error m -> Error m

let encode_request r = encode ~versioned:true request r
let decode_request s = decode ~versioned:true "request" request s
let encode_result r = encode ~versioned:false result r
let decode_result s = decode ~versioned:false "result" result s
let encode_response r = encode ~versioned:true response r
let decode_response s = decode ~versioned:true "response" response s

(* item encodings (no version byte) compose under [encode_items_response]:
   the batch path splices per-item bytes — cached or freshly encoded —
   preserving the byte-identity of each spliced result *)
let encode_response_item r = encode ~versioned:false response r

(* the server's cache-hit fast path: splice the stored result bytes into a
   response verbatim — the client reads exactly the bytes the engine
   produced, so cached and computed responses are byte-identical *)
let splice_result ~versioned ~origin:o result_bytes =
  let b = Buffer.create (String.length result_bytes + 3) in
  if versioned then u8.enc b version;
  u8.enc b result_tag;
  origin.enc b o;
  Buffer.add_string b result_bytes;
  Buffer.contents b

let encode_result_item ~origin result_bytes = splice_result ~versioned:false ~origin result_bytes
let encode_result_response ~origin result_bytes = splice_result ~versioned:true ~origin result_bytes

let encode_items_response items =
  let b = Buffer.create 256 in
  u8.enc b version;
  u8.enc b results_tag;
  u32.enc b (List.length items);
  List.iter (Buffer.add_string b) items;
  Buffer.contents b

(* -- framing ------------------------------------------------------------ *)

(* a frame: magic, u32 payload length, payload *)
let frame payload =
  if String.length payload > max_frame_bytes then invalid_arg "Protocol: frame too large";
  let b = Buffer.create (8 + String.length payload) in
  Buffer.add_string b frame_magic;
  u32.enc b (String.length payload);
  Buffer.add_string b payload;
  Buffer.contents b

(* the payload length the 8-byte header at [off] announces, once its magic
   (checked in place) and the cap are checked *)
let frame_length header off =
  let rec magic_ok i =
    i = String.length frame_magic
    || (Bytes.get header (off + i) = frame_magic.[i] && magic_ok (i + 1))
  in
  if not (magic_ok 0) then Error "bad frame magic"
  else
    let len = Int32.to_int (Bytes.get_int32_be header (off + 4)) land 0xffff_ffff in
    if len > max_frame_bytes then Error (Printf.sprintf "frame of %d bytes exceeds the cap" len)
    else Ok len

(* The server's connection IO. The server makes each accepted descriptor
   non-blocking and tries every read and write first; only when the kernel
   answers EAGAIN does it wait, under a per-frame monotonic deadline, so a
   client that sends half a frame and stalls — or stops draining its
   socket mid-reply — is reaped at the deadline instead of pinning a
   worker domain forever. *)

type frame_error =
  | Frame_timeout  (** the per-frame deadline expired: reap the connection *)
  | Frame_closed of string  (** the peer vanished mid-frame *)
  | Frame_malformed of string  (** bad magic or an oversized length: answer and hang up *)

(* wait until [fd] is ready (readable/writable), bounded by a monotonic
   deadline; spurious select wakeups loop back through the time check *)
let rec wait_fd fd ~for_read ~deadline =
  let remaining = deadline -. Clock.now_s () in
  if remaining <= 0. then Error Frame_timeout
  else
    let r, w = if for_read then ([ fd ], []) else ([], [ fd ]) in
    match Unix.select r w [] remaining with
    | [], [], _ -> wait_fd fd ~for_read ~deadline
    | _ -> Ok ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_fd fd ~for_read ~deadline

(* A connection's read buffer: the received bytes not yet handed out are
   [buf.[off] .. buf.[off + len - 1]]. A read asks for as much as the
   buffer holds, so one read normally brings a whole frame, and whatever
   follows it (a pipelined next frame) waits here for the next call. *)
type reader = { rfd : Unix.file_descr; mutable buf : Bytes.t; mutable off : int; mutable len : int }

let reader_bytes = 4096
let reader fd = { rfd = fd; buf = Bytes.create reader_bytes; off = 0; len = 0 }
let reader_pending r = r.len > 0

(* room for [n] pending bytes from [off]: slide them to the front, into a
   buffer grown to [n] if the frame does not fit *)
let reserve r n =
  if r.off + n > Bytes.length r.buf then begin
    let buf = if n > Bytes.length r.buf then Bytes.create n else r.buf in
    Bytes.blit r.buf r.off buf 0 r.len;
    r.buf <- buf;
    r.off <- 0
  end

(* read until [n] bytes are pending: [Ok false] on EOF with none pending,
   which the header read takes for a clean close *)
let rec fill r n ~deadline =
  if r.len >= n then Ok true
  else begin
    reserve r n;
    let at = r.off + r.len in
    match Unix.read r.rfd r.buf at (Bytes.length r.buf - at) with
    | 0 when r.len = 0 -> Ok false
    | 0 -> Error (Frame_closed "connection closed mid-frame")
    | k ->
      r.len <- r.len + k;
      fill r n ~deadline
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
      match wait_fd r.rfd ~for_read:true ~deadline with
      | Ok () -> fill r n ~deadline
      | Error _ as e -> e)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> fill r n ~deadline
    | exception Unix.Unix_error (e, _, _) -> Error (Frame_closed (Unix.error_message e))
  end

(* hand out [n] bytes; a buffer grown for a large frame goes back to the
   small size once what it still holds fits there *)
let consume r n =
  r.off <- (if r.len = n then 0 else r.off + n);
  r.len <- r.len - n;
  if Bytes.length r.buf > reader_bytes && r.len <= reader_bytes then begin
    let buf = Bytes.create reader_bytes in
    Bytes.blit r.buf r.off buf 0 r.len;
    r.buf <- buf;
    r.off <- 0
  end

let read_frame_from r ~deadline_s =
  let deadline = Clock.now_s () +. deadline_s in
  match fill r 8 ~deadline with
  | Error e -> Error e
  | Ok false -> Ok None
  | Ok true -> (
    match frame_length r.buf r.off with
    | Error m -> Error (Frame_malformed m)
    | Ok len -> (
      match fill r (8 + len) ~deadline with
      | Error e -> Error e
      | Ok _ ->
        let payload = Bytes.sub_string r.buf (r.off + 8) len in
        consume r (8 + len);
        Ok (Some payload)))

let write_frame_deadline fd ~deadline_s payload =
  let msg = frame payload in
  let deadline = Clock.now_s () +. deadline_s in
  let rec loop pos =
    if pos >= String.length msg then Ok ()
    else
      match Unix.single_write_substring fd msg pos (String.length msg - pos) with
      | n -> loop (pos + n)
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> (
        match wait_fd fd ~for_read:false ~deadline with
        | Ok () -> loop pos
        | Error _ as e -> e)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> loop pos
      | exception Unix.Unix_error (e, _, _) -> Error (Frame_closed (Unix.error_message e))
  in
  loop 0

(* Unix.write loops over short writes itself *)
let write_frame fd payload =
  let msg = frame payload in
  ignore (Unix.write_substring fd msg 0 (String.length msg) : int)

let rec really_read fd buf pos len =
  if len = 0 then true
  else
    match Unix.read fd buf pos len with
    | 0 -> false
    | n -> really_read fd buf (pos + n) (len - n)

let read_frame fd =
  let header = Bytes.create 8 in
  if not (really_read fd header 0 8) then Ok None
  else
    match frame_length header 0 with
    | Error m -> Error m
    | Ok len ->
      let payload = Bytes.create len in
      if really_read fd payload 0 len then Ok (Some (Bytes.unsafe_to_string payload))
      else Error "connection closed mid-frame"

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

let family_token f = String.lowercase_ascii (Model.family_name f)

let family_of_token s =
  match Array.find_opt (fun f -> family_token f = String.lowercase_ascii s) families with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "unknown model %S (expected sc|tso|pso|wo)" s)

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
  (* reversed: a repeated key's last value wins *)
  let kvs rest =
    List.rev_map
      (fun tok ->
        let k, v = split_kv tok in
        (String.lowercase_ascii k, v))
      rest
  in
  (* [key=V] converted by [convert]; [hint] names the value in the
     missing-value message, [what] its kind in the bad-value one *)
  let value_kv convert ~hint ~what kvs key default =
    match List.assoc_opt key kvs with
    | None -> Ok default
    | Some None -> Error (Printf.sprintf "%s needs a value (%s=%s)" key key hint)
    | Some (Some v) -> (
      match convert v with
      | Some x -> Ok x
      | None -> Error (Printf.sprintf "bad %s %S for %s" what v key))
  in
  let int_kv = value_kv int_of_string_opt ~hint:"N" ~what:"integer" in
  let float_kv = value_kv float_of_string_opt ~hint:"X" ~what:"number" in
  let width_kv kvs =
    value_kv
      (fun v -> Option.map Option.some (float_of_string_opt v))
      ~hint:"W" ~what:"number" kvs "width" None
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
    let kvs = kvs rest in
    let* () = known kvs [ "window" ] in
    let* window = int_kv kvs "window" 8 in
    Ok (Verify { test; family; window })
  | "enumerate" :: test :: model :: rest ->
    let* family = family_of_token model in
    let rest, por = List.partition (fun t -> String.lowercase_ascii t <> "por") rest in
    let kvs = kvs rest in
    let* () = known kvs [ "window" ] in
    let* window = int_kv kvs "window" 8 in
    Ok (Enumerate { test; family; window; por = por <> [] })
  | "axiom" :: test :: model :: rest ->
    let* family = family_of_token model in
    let kvs = kvs rest in
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
    let kvs = kvs rest in
    let* () = known kvs [ "gamma"; "p"; "m"; "seed"; "trials"; "width" ] in
    let* gamma = int_kv kvs "gamma" 1 in
    let* p = float_kv kvs "p" 0.5 in
    let* m = int_kv kvs "m" 64 in
    let* seed, trials, target_width = estimate_common kvs in
    Ok (Estimate { kind = Settling { gamma; p; m }; family; seed; trials; target_width })
  | "estimate" :: "shift" :: rest ->
    let kvs = kvs rest in
    let* () = known kvs [ "gammas"; "seed"; "trials"; "width" ] in
    let* gammas =
      match List.assoc_opt "gammas" kvs with
      | None | Some None -> Error "estimate shift needs gammas=G,G,..."
      | Some (Some v) ->
        let parts = String.split_on_char ',' v in
        (match List.find_opt (fun part -> int_of_string_opt part = None) parts with
         | Some part -> Error (Printf.sprintf "bad segment length %S" part)
         | None -> Ok (Array.of_list (List.map int_of_string parts)))
    in
    let* seed, trials, target_width = estimate_common kvs in
    (* the shift process has no memory model: canonicalize the family *)
    Ok
      (Estimate
         { kind = Shift { gammas }; family = Model.Sequential_consistency; seed; trials;
           target_width })
  | "estimate" :: "joint" :: model :: rest ->
    let* family = family_of_token model in
    let kvs = kvs rest in
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

(* one indented line per outcome: its count of [noun]s *)
let entry_lines noun entries =
  String.concat ""
    (List.map
       (fun (o, k) ->
         Printf.sprintf "\n    %-30s %6d %s%s" (outcome_to_string o) k noun
           (if k = 1 then "" else "s"))
       entries)

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
    Printf.sprintf "%d outcomes, %d terminals, %d states%s%s" (List.length entries) terminals
      states partial (entry_lines "terminal state" entries)
  | Axiom_outcomes { entries; accepted } ->
    Printf.sprintf "%d outcomes, %d accepted candidates%s%s" (List.length entries) accepted
      partial (entry_lines "candidate" entries)
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
