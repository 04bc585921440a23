(** Blocking client for the memrel service. *)

type t

val connect : ?retry_for:float -> Protocol.address -> (t, string) result
(** [connect address] opens one connection. [retry_for] (seconds, default
    0) retries on [ECONNREFUSED]/[ENOENT] while the daemon is coming up —
    what the CLI's [--wait] flag and the in-process test harness use.
    Connecting also sets the process to ignore SIGPIPE (once), so a daemon
    hanging up mid-write surfaces as a retryable error instead of killing
    the client. *)

val request : t -> Protocol.request -> (Protocol.response, string) result
(** One request/response round trip. The connection is unusable after an
    [Error]. A reply the daemon sent before hanging up (a shed connection's
    [Overloaded]) is returned even when the request's write failed. *)

val query : ?limits:Protocol.limits -> t -> Protocol.query -> (Protocol.response, string) result

val close : t -> unit

val with_connection :
  ?retry_for:float -> Protocol.address -> (t -> ('a, string) result) -> ('a, string) result

(** {1 Retrying requests} *)

type retry_stats = {
  attempts : int;  (** total attempts made, including the successful one *)
  overloaded_retries : int;  (** retries caused by a typed [Overloaded] shed *)
  connect_retries : int;  (** retries caused by connect/transport failures *)
  backoff_s : float;  (** total time slept between attempts *)
}

val request_retry :
  ?max_attempts:int ->
  ?base_delay_s:float ->
  ?max_delay_s:float ->
  ?deadline_s:float ->
  ?seed:int ->
  Protocol.address ->
  Protocol.request ->
  (Protocol.response * retry_stats, string) result
(** One logical request with retries: a fresh connection per attempt,
    exponential backoff ([base_delay_s] doubling up to [max_delay_s], 50%
    seeded jitter) on connect or transport failure, and an [Overloaded]
    reply's [retry_after_s] honored as the backoff floor. Gives up after
    [max_attempts] (default 8) or when the monotonic [deadline_s] (default
    30) would pass. A returned [Ok] is never [Overloaded]. Retrying is safe
    by construction: complete responses are byte-identical whether
    computed, cached or recomputed after a crash, so a retried query
    cannot observe a different answer. *)
