(** The [memrel serve] daemon.

    Listens on a Unix-domain or TCP socket, dispatches connections to a
    {!Pool} of worker Domains, and answers {!Protocol} requests through a
    {!Cache}-fronted {!Engine}. Cache hits are spliced into responses
    byte-for-byte; [Batch] requests compute identical sub-queries once; a
    [Shutdown] request stops the accept loop, drains the pool, and removes
    a Unix socket path. Idle connections are polled at frame boundaries so
    shutdown never waits on a silent client.

    Robustness posture (DESIGN.md §16): a full worker queue sheds new
    connections with a typed [Overloaded] retry-after response instead of
    queueing unboundedly; every frame read/write runs under a per-frame
    monotonic deadline so a stalled client is reaped rather than pinning a
    worker; worker handler exceptions are counted, logged and survived,
    and a worker killed by the crash drill is respawned; starting over a
    Unix socket that a live daemon still answers is refused rather than
    stealing the path. *)

type config = {
  address : Protocol.address;
  cache_dir : string;
  workers : int;  (** worker Domains serving connections (>= 1) *)
  caps : Engine.caps;  (** server-side ceilings on per-request limits *)
  shards : int;  (** cache lock shards (1..256) *)
  extmem : Engine.extmem option;
      (** when set, verify/enumerate queries run on the external-memory
          BFS engine, spilling under [spill_root] — RAM-bounded queries
          answer identically, larger ones become answerable *)
  max_queue : int;
      (** pending-connection bound; beyond it new connections are shed
          with [Overloaded] (>= 1) *)
  io_deadline_s : float;
      (** per-frame IO deadline: once a frame starts, the request/reply
          exchange must finish within this many seconds or the connection
          is reaped *)
  drain_signals : bool;
      (** install SIGTERM/SIGINT handlers that drain gracefully (stop
          accepting, finish in-flight requests, remove the socket) — the
          CLI daemon sets this; in-process test servers leave it off *)
}

val resolve_host : string -> Unix.inet_addr
(** Numeric parse first, then a name lookup. Raises [Failure]. *)

val default_config : Protocol.address -> string -> config
(** 1 worker, 16 shards, no caps, queue bound 64, 30 s IO deadline, no
    signal handlers. Kept for in-process tests, which start from it. *)

val unix_socket_live : string -> bool
(** Does a live daemon answer on this Unix socket path? Kept for tests of
    the live-socket refusal. *)

val run : ?on_ready:(unit -> unit) -> config -> unit
(** Serve until a [Shutdown] request arrives (or, with [drain_signals],
    SIGTERM/SIGINT). [on_ready] fires once the socket is listening
    (in-process harnesses use it to know when to connect). Blocks the
    calling domain. Raises [Failure] without serving anything if a live
    daemon already answers on a Unix socket path. *)
