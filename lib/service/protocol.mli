(** The memrel service wire protocol, MRF1.

    Length-prefixed binary frames carrying typed requests and responses.
    A frame is ["MRF1"] + u32 payload length + payload; a payload is a
    version byte followed by a tagged tree of big-endian fixed-width
    fields. Each wire type is described once, as a private codec that
    gives both its encoder and its decoder. Decoders never raise: bad
    input, including an integer outside OCaml's 63-bit range, is an
    [Error]. The {e result} portion of a response, the part the cache
    stores, encodes on its own ({!encode_result}/{!decode_result}) so a
    cache hit can be spliced into a response frame byte-for-byte
    ({!encode_result_response}). See DESIGN.md §14. *)

val version : int
(** Protocol version byte, bumped on any incompatible change. *)

val max_frame_bytes : int
(** Frames above this size (16 MiB) are rejected on both ends. *)

(** {1 Queries} *)

type estimate_kind =
  | Settling of { gamma : int; p : float; m : int }
      (** Pr[B_gamma] of the settling process *)
  | Shift of { gammas : int array }  (** Pr[A] of the shift process *)
  | Joint of { n : int }  (** Pr[no bug] of the joined model *)

type query =
  | Verify of { test : string; family : Memrel_memmodel.Model.family; window : int }
  | Enumerate of {
      test : string;
      family : Memrel_memmodel.Model.family;
      window : int;
      por : bool;
    }
  | Axiom of { test : string; family : Memrel_memmodel.Model.family; window : int }
      (** answered by the chronological {!Memrel_axiom.Solver} *)
  | Estimate of {
      kind : estimate_kind;
      family : Memrel_memmodel.Model.family;
      seed : int;
      trials : int;
      target_width : float option;
          (** [Some w]: adaptive stopping at CI width [w], [trials] as the
              cap *)
    }

type limits = {
  deadline_s : float option;
  max_work : int option;
  max_mem_mb : int option;
}
(** Per-request resource limits, mapped onto {!Memrel_prob.Budget} after
    clamping by the server's caps. *)

val no_limits : limits

type request =
  | Query of query * limits
  | Batch of (query * limits) list
      (** answered by a [Results] in the same order; identical sub-queries
          are computed once *)
  | Stats
  | Ping
  | Shutdown

(** {1 Results} *)

type outcome = (string * int) list

type partial_info = { cause : string; work_done : int; elapsed_s : float }
(** Wire form of {!Memrel_prob.Budget.exhaustion}. *)

val partial_of_exhaustion : Memrel_prob.Budget.exhaustion -> partial_info

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
(** [partial = Some _] marks a budget-exhausted partial answer; only
    complete results are cacheable. *)

type origin = Computed | Memory_hit | Disk_hit

val origin_to_string : origin -> string

type error_code = Bad_request | Unknown_test | Unsupported | Server_error

val error_code_to_string : error_code -> string

type cache_stats = {
  entries : int;
  memory_hits : int;
  disk_hits : int;
  misses : int;
  stores : int;
  disk_errors : int;
  repairs : int;
      (** corrupt disk entries (CRC/decode failures) recomputed and
          rewritten — a served answer is never built from a bad entry *)
}

type server_stats = {
  cache : cache_stats;
  requests : int;
  uptime_s : float;  (** monotonic; wall-clock steps cannot make it negative *)
  workers : int;
  shed : int;  (** connections answered [Overloaded] at queue capacity *)
  handler_exceptions : int;  (** worker handler exceptions (counted + logged) *)
  respawns : int;  (** worker domains respawned after a fatal escape *)
  reaped : int;  (** connections closed at a per-frame IO deadline *)
}

type response =
  | Result of { result : result; origin : origin }
  | Results of response list
  | Error of { code : error_code; message : string }
  | Overloaded of { retry_after_s : float }
      (** worker queue at capacity: the typed shed response. Safe to retry
          after the delay — complete responses are byte-identical whether
          computed or cached, so a retry can never observe a different
          answer. *)
  | Stats_reply of server_stats
  | Pong
  | Bye

(** {1 Binary encoding} *)

val encode_request : request -> string
val decode_request : string -> (request, string) Stdlib.result

val encode_result : result -> string
(** The cacheable encoding. Deterministic: equal results encode to equal
    bytes. *)

val decode_result : string -> (result, string) Stdlib.result

val encode_response : response -> string
val decode_response : string -> (response, string) Stdlib.result
(** [Results] nested more than 8 levels deep is an [Error], found before
    the decoder recurses any further. *)

val encode_result_response : origin:origin -> string -> string
(** [encode_result_response ~origin result_bytes] splices bytes produced by
    {!encode_result} into a full [Result] response payload without decoding
    them — the cache-hit fast path, and the byte-identity guarantee. *)

val encode_result_item : origin:origin -> string -> string
(** The splice as a version-less batch item. *)

val encode_response_item : response -> string
(** Any response as a version-less batch item. *)

val encode_items_response : string list -> string
(** Wrap items (from {!encode_result_item} / {!encode_response_item}) into
    a [Results] payload — how the server answers a [Batch] without
    re-encoding cached results. *)

(** {1 Framing} *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one frame, handling short writes. Raises [Unix.Unix_error] and
    [Invalid_argument] on oversized payloads. *)

val read_frame : Unix.file_descr -> (string option, string) Stdlib.result
(** [Ok None] on clean EOF before a frame starts; [Error _] on a malformed
    or oversized header, or EOF mid-frame. *)

(** {2 The server's connection IO}

    The server makes each accepted descriptor non-blocking and tries every
    read and write first, waiting only on [EAGAIN], and then under a
    per-frame monotonic deadline: a client that sends half a frame and
    stalls, or stops draining its socket mid-reply, is reaped at the
    deadline instead of pinning a worker domain. *)

type frame_error =
  | Frame_timeout  (** per-frame deadline expired: reap the connection *)
  | Frame_closed of string  (** peer vanished mid-frame *)
  | Frame_malformed of string  (** bad magic / oversized length: answer and hang up *)

type reader
(** A connection's read buffer: 4 KiB, grown to the size of a larger frame
    while it is read and shrunk back after. One read normally brings in a
    whole frame; bytes past it (a pipelined next frame) stay buffered. *)

val reader : Unix.file_descr -> reader
(** A reader for a non-blocking descriptor. *)

val reader_pending : reader -> bool
(** Are received bytes waiting to be handed out? While they are, the next
    frame (or its start) is already here, so there is nothing to poll for. *)

val read_frame_from : reader -> deadline_s:float -> (string option, frame_error) Stdlib.result
(** The next frame's payload, like {!read_frame}, but the rest of the frame
    must arrive within [deadline_s] seconds (monotonic). [Ok None] on a
    clean EOF at a frame boundary. *)

val write_frame_deadline :
  Unix.file_descr -> deadline_s:float -> string -> (unit, frame_error) Stdlib.result
(** Like {!write_frame} on a non-blocking descriptor: the whole frame must
    drain within [deadline_s] seconds (monotonic). *)

(** {1 Addresses} *)

type address = Unix_path of string | Tcp of string * int

val address_of_string : string -> (address, string) Stdlib.result
(** ["tcp:HOST:PORT"] parses to {!Tcp} (empty host means 127.0.0.1);
    anything else is a Unix-domain socket path. *)

val address_to_string : address -> string

(** {1 Query text syntax}

    The [memrel query] surface:
    {v
    verify TEST MODEL [window=W]
    enumerate TEST MODEL [window=W] [por]
    axiom TEST MODEL [window=W] [engine=solver]
    estimate settling MODEL gamma=G [p=P] [m=M] [seed=S] [trials=N] [width=W]
    estimate shift gammas=3,2,5 [seed=S] [trials=N] [width=W]
    estimate joint MODEL n=N [seed=S] [trials=N] [width=W]
    v}
    Defaults: window 8, seed 1, trials 100_000, p 0.5, m 64. [engine=solver]
    parses to the same query as no token (the solver is the only axiomatic
    engine); any other engine is an error. *)

val parse_query : string -> (query, string) Stdlib.result

val query_to_string : query -> string
(** Canonical text form; [parse_query (query_to_string q)] round-trips for
    every encodable query. *)

(** {1 Rendering} *)

val render_result : result -> string
val render_response : response -> string
(** Human-readable rendering for the CLI; [Result] lines are prefixed with
    the origin tag [[computed]] / [[memory]] / [[disk]]. *)
