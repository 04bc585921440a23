module P = Protocol

type t = { fd : Unix.file_descr }

let socket_for = function
  | P.Unix_path _ -> Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0
  | P.Tcp _ -> Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0

let sockaddr_of = function
  | P.Unix_path path -> Unix.ADDR_UNIX path
  | P.Tcp (host, port) -> Unix.ADDR_INET (Server.resolve_host host, port)

(* a daemon hanging up as we write — e.g. the overload path sheds us and
   closes while our request is still in flight — must surface as EPIPE, a
   retryable [Error], not kill the client process with SIGPIPE *)
let ignore_sigpipe =
  lazy (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ())

let connect ?(retry_for = 0.) address =
  Lazy.force ignore_sigpipe;
  (* monotonic: a wall-clock step mid-wait can neither cut the window
     short nor stretch it *)
  let deadline = Clock.now_s () +. retry_for in
  let rec attempt () =
    let fd = socket_for address in
    match Unix.connect fd (sockaddr_of address) with
    | () -> Ok { fd }
    | exception Unix.Unix_error ((Unix.ECONNREFUSED | Unix.ENOENT) as e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      if Clock.now_s () < deadline then begin
        (* the daemon is still coming up: back off briefly and retry *)
        Clock.sleep_s 0.05;
        attempt ()
      end
      else Error (Printf.sprintf "cannot connect to %s: %s" (P.address_to_string address)
                    (Unix.error_message e))
    | exception Unix.Unix_error (e, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      Error (Printf.sprintf "cannot connect to %s: %s" (P.address_to_string address)
               (Unix.error_message e))
  in
  attempt ()

let request t req =
  try
    (* a shed connection is sent its typed [Overloaded] reply and closed,
       possibly before our request is written: the write then fails with
       EPIPE while the reply still waits to be read *)
    (try P.write_frame t.fd (P.encode_request req)
     with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ());
    match P.read_frame t.fd with
    | Ok (Some payload) -> P.decode_response payload
    | Ok None -> Error "server closed the connection"
    | Error _ as e -> e
  with Unix.Unix_error (e, _, _) -> Error (Unix.error_message e)

let query ?(limits = P.no_limits) t q = request t (P.Query (q, limits))

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let with_connection ?retry_for address f =
  match connect ?retry_for address with
  | Error _ as e -> e
  | Ok t -> Fun.protect ~finally:(fun () -> close t) (fun () -> f t)

(* -- retrying request --------------------------------------------------- *)

type retry_stats = {
  attempts : int;
  overloaded_retries : int;
  connect_retries : int;
  backoff_s : float;
}

let request_retry ?(max_attempts = 8) ?(base_delay_s = 0.05) ?(max_delay_s = 2.0)
    ?(deadline_s = 30.) ?(seed = 1) address req =
  if max_attempts < 1 then invalid_arg "Client.request_retry: max_attempts must be >= 1";
  let rng = Memrel_prob.Rng.create seed in
  let deadline = Clock.now_s () +. deadline_s in
  let stats = ref { attempts = 0; overloaded_retries = 0; connect_retries = 0; backoff_s = 0. } in
  (* exponential growth capped at [max_delay_s]; an [Overloaded] reply's
     retry-after acts as a floor (the server knows its backlog better than
     our schedule does). Jitter stretches the wait by up to 50% so a herd
     of shed clients does not come back in lockstep. *)
  let backoff attempt ~floor_s =
    let expo = Float.min max_delay_s (base_delay_s *. (2. ** float_of_int (attempt - 1))) in
    let d = Float.max floor_s expo *. (1. +. (0.5 *. Memrel_prob.Rng.float rng)) in
    let remaining = deadline -. Clock.now_s () in
    if remaining <= 0. then None
    else begin
      let d = Float.min d remaining in
      stats := { !stats with backoff_s = !stats.backoff_s +. d };
      Clock.sleep_s d;
      Some ()
    end
  in
  let rec attempt n =
    stats := { !stats with attempts = n };
    let retry ~floor_s ~count err =
      if n >= max_attempts then Error (err ^ Printf.sprintf " (after %d attempts)" n)
      else
        match backoff n ~floor_s with
        | None -> Error (err ^ Printf.sprintf " (deadline exceeded after %d attempts)" n)
        | Some () ->
          count ();
          attempt (n + 1)
    in
    match connect address with
    | Error msg ->
      retry ~floor_s:0. msg ~count:(fun () ->
          stats := { !stats with connect_retries = !stats.connect_retries + 1 })
    | Ok conn -> (
      match Fun.protect ~finally:(fun () -> close conn) (fun () -> request conn req) with
      | Ok (P.Overloaded { retry_after_s }) ->
        retry ~floor_s:retry_after_s "server overloaded" ~count:(fun () ->
            stats := { !stats with overloaded_retries = !stats.overloaded_retries + 1 })
      | Ok response -> Ok (response, !stats)
      | Error msg ->
        retry ~floor_s:0. msg ~count:(fun () ->
            stats := { !stats with connect_retries = !stats.connect_retries + 1 }))
  in
  attempt 1
