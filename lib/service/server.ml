module P = Protocol

type config = {
  address : P.address;
  cache_dir : string;
  workers : int;
  caps : Engine.caps;
  shards : int;
  extmem : Engine.extmem option;
  max_queue : int;
  io_deadline_s : float;
  drain_signals : bool;
}

let default_config address cache_dir =
  {
    address;
    cache_dir;
    workers = 1;
    caps = Engine.no_caps;
    shards = 16;
    extmem = None;
    max_queue = 64;
    io_deadline_s = 30.;
    drain_signals = false;
  }

type state = {
  config : config;
  cache : Cache.t;
  stop : bool Atomic.t;
  requests : int Atomic.t;
  reaped : int Atomic.t;
  started : float;  (* Clock.now_s at startup: monotonic, so uptime is too *)
  mutable pool : Unix.file_descr Pool.t option;
      (* set once before the accept loop starts; stats replies read the
         pool's shed/exception/respawn counters through it *)
}

let resolve_host host =
  match Unix.inet_addr_of_string host with
  | addr -> addr
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = [||]; _ } -> failwith ("no address for host " ^ host)
    | { Unix.h_addr_list; _ } -> h_addr_list.(0)
    | exception Not_found -> failwith ("unknown host " ^ host))

(* does anything answer on this Unix socket path? A leftover path from a
   crashed daemon must be swept aside, but a live daemon's socket must
   not be stolen — unlinking it would orphan the running process and
   split the cache across two daemons. *)
let unix_socket_live path =
  if not (Sys.file_exists path) then false
  else begin
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Fun.protect
      ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
      (fun () ->
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | () -> true
        | exception Unix.Unix_error _ -> false)
  end

let listening_socket address =
  match address with
  | P.Unix_path path ->
    if unix_socket_live path then
      failwith
        (Printf.sprintf
           "socket %s: a live daemon is already serving (stop it first, or pick \
            another --address)"
           path);
    (try Unix.unlink path with Unix.Unix_error _ -> ());
    let sock = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.bind sock (Unix.ADDR_UNIX path);
    Unix.listen sock 64;
    sock
  | P.Tcp (host, port) ->
    let sock = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
    Unix.setsockopt sock Unix.SO_REUSEADDR true;
    Unix.bind sock (Unix.ADDR_INET (resolve_host host, port));
    Unix.listen sock 64;
    sock

(* -- request handling --------------------------------------------------- *)

let error_response (e : Engine.error) = P.Error { code = e.Engine.code; message = e.Engine.message }

(* a single query answers with the spliced cache bytes — the fast path that
   makes cached responses byte-identical to computed ones *)
let answer_query st q limits =
  match Engine.run_cached ~caps:st.config.caps ?extmem:st.config.extmem st.cache q limits with
  | Ok (bytes, origin) -> P.encode_result_response ~origin bytes
  | Error e -> P.encode_response (error_response e)

let answer_query_item st q limits =
  match Engine.run_cached ~caps:st.config.caps ?extmem:st.config.extmem st.cache q limits with
  | Ok (bytes, origin) -> P.encode_result_item ~origin bytes
  | Error e -> P.encode_response_item (error_response e)

(* Batch: identical sub-queries (same query AND same limits) are computed
   once. Keyed by the encoded request bytes — structural identity without
   a comparator over the query tree. *)
let answer_batch st items =
  let memo = Hashtbl.create (List.length items) in
  let answers =
    List.map
      (fun (q, limits) ->
        let key = P.encode_request (P.Query (q, limits)) in
        match Hashtbl.find_opt memo key with
        | Some bytes -> bytes
        | None ->
          let bytes = answer_query_item st q limits in
          Hashtbl.replace memo key bytes;
          bytes)
      items
  in
  P.encode_items_response answers

let server_stats st =
  let ps =
    match st.pool with
    | Some pool -> Pool.stats pool
    | None -> { Pool.queue_len = 0; shed = 0; handler_exceptions = 0; respawns = 0 }
  in
  {
    P.cache = Cache.stats st.cache;
    requests = Atomic.get st.requests;
    uptime_s = Clock.now_s () -. st.started;
    workers = st.config.workers;
    shed = ps.Pool.shed;
    handler_exceptions = ps.Pool.handler_exceptions;
    respawns = ps.Pool.respawns;
    reaped = Atomic.get st.reaped;
  }

let handle_request st = function
  | P.Query (q, limits) -> answer_query st q limits
  | P.Batch items -> answer_batch st items
  | P.Stats -> P.encode_response (P.Stats_reply (server_stats st))
  | P.Ping -> P.encode_response P.Pong
  | P.Shutdown ->
    Atomic.set st.stop true;
    P.encode_response P.Bye

(* poll at frame boundaries so an idle connection notices a shutdown: a
   blocking read here would leave a worker pinned until its client went
   away, and [Pool.shutdown] would never join *)
let rec wait_readable st fd =
  if Atomic.get st.stop then false
  else
    match Unix.select [ fd ] [] [] 0.2 with
    | [], _, _ -> wait_readable st fd
    | _ -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_readable st fd

(* Once a frame starts (the socket turned readable), the whole exchange —
   frame in, reply out — must finish within [io_deadline_s]. An idle
   connection between frames costs nothing; a client that sends half a
   frame and stalls, or stops draining its reply, is reaped at the
   deadline so it cannot pin a worker domain.

   The descriptor is non-blocking and every read and write is tried first,
   so a query costs three syscalls: the idle poll's select, one read (the
   reader asks for a whole buffer, which normally holds the whole frame)
   and one write. A frame already buffered skips the poll. *)
let serve_connection st fd =
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.set_nonblock fd;
      let reader = P.reader fd in
      (* relative: each frame read/write computes its own absolute
         monotonic deadline from this *)
      let deadline_s = st.config.io_deadline_s in
      let rec loop () =
        if P.reader_pending reader || wait_readable st fd then
          match P.read_frame_from reader ~deadline_s with
          | Ok None -> ()
          | Error P.Frame_timeout -> Atomic.incr st.reaped
          | Error (P.Frame_closed _) -> ()
          | Error (P.Frame_malformed msg) ->
            (* a malformed frame poisons the stream: answer and hang up *)
            ignore
              (P.write_frame_deadline fd ~deadline_s
                 (P.encode_response (P.Error { code = P.Bad_request; message = msg })))
          | Ok (Some payload) ->
            Atomic.incr st.requests;
            let reply =
              match P.decode_request payload with
              | Error msg ->
                P.encode_response (P.Error { code = P.Bad_request; message = msg })
              | Ok request -> handle_request st request
            in
            (match P.write_frame_deadline fd ~deadline_s reply with
            | Ok () -> if not (Atomic.get st.stop) then loop ()
            | Error P.Frame_timeout -> Atomic.incr st.reaped
            | Error (P.Frame_closed _ | P.Frame_malformed _) -> ())
      in
      loop ())

(* -- lifecycle ----------------------------------------------------------- *)

(* the retry-after hint scales with how deep the backlog is relative to
   the draining capacity, clamped to something a human-scale client can
   act on *)
let retry_after_hint ~backlog ~workers =
  Float.min 2.0 (Float.max 0.05 (0.25 *. float_of_int backlog /. float_of_int workers))

let run ?on_ready config =
  (* a client hanging up mid-reply must not kill the daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let st =
    {
      config;
      cache = Cache.create ~shards:config.shards ~dir:config.cache_dir ();
      stop = Atomic.make false;
      requests = Atomic.make 0;
      reaped = Atomic.make 0;
      started = Clock.now_s ();
      pool = None;
    }
  in
  if config.drain_signals then begin
    let drain _ = Atomic.set st.stop true in
    try
      Sys.set_signal Sys.sigterm (Sys.Signal_handle drain);
      Sys.set_signal Sys.sigint (Sys.Signal_handle drain)
    with Invalid_argument _ -> ()
  end;
  let sock = listening_socket config.address in
  let pool =
    Pool.create ~max_queue:config.max_queue ~workers:config.workers
      ~handler:(serve_connection st) ()
  in
  st.pool <- Some pool;
  Option.iter (fun f -> f ()) on_ready;
  let shed_connection fd =
    (* typed shed: tell the client when to come back, then hang up. The
       write is non-blocking and runs on a short deadline, so a
       non-draining client cannot stall the accept loop. *)
    let retry_after_s =
      retry_after_hint ~backlog:(Pool.queue_length pool) ~workers:config.workers
    in
    (try Unix.set_nonblock fd with Unix.Unix_error _ -> ());
    ignore
      (P.write_frame_deadline fd ~deadline_s:1.0
         (P.encode_response (P.Overloaded { retry_after_s })));
    try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let rec accept_loop () =
    if not (Atomic.get st.stop) then begin
      (match Unix.select [ sock ] [] [] 0.2 with
       | [], _, _ -> ()
       | _ -> (
         match Unix.accept sock with
         | fd, _ -> (
           match Pool.submit pool fd with
           | Pool.Accepted -> ()
           | Pool.Overloaded -> shed_connection fd
           | Pool.Stopping -> ( try Unix.close fd with Unix.Unix_error _ -> ()))
         | exception Unix.Unix_error ((Unix.EINTR | Unix.ECONNABORTED), _, _) -> ())
       | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      accept_loop ()
    end
  in
  Fun.protect
    ~finally:(fun () ->
      Pool.shutdown pool;
      (try Unix.close sock with Unix.Unix_error _ -> ());
      match config.address with
      | P.Unix_path path -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
      | P.Tcp _ -> ())
    accept_loop
