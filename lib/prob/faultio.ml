(* Deterministic fault injection over a syscall facade.

   Every snapshot-container byte the system persists — result-cache
   entries, extmem spill runs and manifests, governed-engine checkpoints —
   travels through the three facade operations below ([read_file],
   [write_file], [rename]). With no plan installed the facade is the plain
   syscall with an EINTR/short-transfer retry loop and zero bookkeeping.
   With a plan installed, each operation consults it and may be dealt a
   fault:

     Eintr   the underlying read/write raises EINTR once; the facade's
             retry loop absorbs it (counted, invisible to the caller)
     Short   the underlying read/write transfers only part of the buffer;
             the loop continues from where it stopped (counted, invisible)
     Enospc  the operation fails with ENOSPC; the facade raises [Io] and
             the caller sees a typed one-line error
     Torn    (rename only) the source file is truncated at a seeded point
             before the rename — modelling a crash on a filesystem whose
             rename is not atomic; the destination exists but its CRC
             cannot verify, so readers repair instead of trusting it
     Crash   part of the buffer is written, then [Crash_point] is raised —
             modelling kill -9 at the worst instant; nothing is cleaned
             up, debris stays exactly as a real crash would leave it

   Plans are replayable: a plan is a splitmix64 stream seeded by the
   caller plus per-site operation counters, so the same seed against the
   same operation sequence deals the same faults, and [trace] returns the
   dealt sequence for cross-run comparison. Scripted plans deal a fault at
   the nth operation of a given site exactly, for pinpoint tests.

   The installed plan is global (an [Atomic]) and its decision draw is
   mutex-guarded: worker domains racing through the facade each get a
   deterministic plan-order draw, though the interleaving across domains
   is theirs. Single-domain runs are fully deterministic. *)

type site = Read | Write | Rename

type fault = Eintr | Short | Enospc | Torn | Crash

exception Crash_point of string
(** A simulated kill -9: raised mid-operation with debris left in place.
    Nothing below the chaos harness should catch it. *)

exception Io of string
(** A typed one-line IO failure (real or injected). *)

type event = { op : int; site : site; path : string; fault : fault }

type stats = {
  ops : int;
  eintr : int;
  short : int;
  enospc : int;
  torn : int;
  crashes : int;
}

type rates = { r_eintr : float; r_short : float; r_enospc : float; r_torn : float; r_crash : float }

type plan = {
  mutex : Mutex.t;
  rng : Rng.t;
  seed : int;
  rates : rates;
  script : (site * int * fault) list;
  (* per-site 1-based operation counters *)
  mutable n_read : int;
  mutable n_write : int;
  mutable n_rename : int;
  mutable ops : int;
  mutable dealt : event list; (* reversed trace *)
}

let plan ?(eintr = 0.) ?(short = 0.) ?(enospc = 0.) ?(torn = 0.) ?(crash = 0.) ~seed () =
  List.iter
    (fun r -> if r < 0. || r > 1. then invalid_arg "Faultio.plan: rates must be in [0, 1]")
    [ eintr; short; enospc; torn; crash ];
  {
    mutex = Mutex.create ();
    rng = Rng.create seed;
    seed;
    rates = { r_eintr = eintr; r_short = short; r_enospc = enospc; r_torn = torn; r_crash = crash };
    script = [];
    n_read = 0;
    n_write = 0;
    n_rename = 0;
    ops = 0;
    dealt = [];
  }

(* the standard mix a single --fault-rate knob expands to: transient faults
   dominate, hard failures and torn renames are rarer, and crash points are
   dealt only by explicit rates or scripts (a daemon's crash drill is a
   real kill -9, not an in-process exception) *)
let plan_rate ~seed rate =
  if rate < 0. || rate > 1. then invalid_arg "Faultio.plan_rate: rate must be in [0, 1]";
  plan ~seed ~eintr:(0.35 *. rate) ~short:(0.35 *. rate) ~enospc:(0.15 *. rate)
    ~torn:(0.15 *. rate) ()

let script entries ~seed =
  List.iter
    (fun (site, n, fault) ->
      if n < 1 then invalid_arg "Faultio.script: operation numbers are 1-based";
      match (site, fault) with
      | Read, (Enospc | Torn | Crash) ->
        invalid_arg "Faultio.script: reads can only be dealt Eintr or Short"
      | Rename, (Eintr | Short) ->
        invalid_arg "Faultio.script: renames can only be dealt Enospc, Torn or Crash"
      | _ -> ())
    entries;
  { (plan ~seed ()) with script = entries }

let seed_of p = p.seed

let stats p =
  Mutex.lock p.mutex;
  let count f = List.length (List.filter (fun e -> e.fault = f) p.dealt) in
  let s =
    {
      ops = p.ops;
      eintr = count Eintr;
      short = count Short;
      enospc = count Enospc;
      torn = count Torn;
      crashes = count Crash;
    }
  in
  Mutex.unlock p.mutex;
  s

let trace p =
  Mutex.lock p.mutex;
  let t = List.rev p.dealt in
  Mutex.unlock p.mutex;
  t

(* -- installation -------------------------------------------------------- *)

let current : plan option Atomic.t = Atomic.make None

let install p = Atomic.set current (Some p)
let clear () = Atomic.set current None
let installed () = Atomic.get current

let with_plan p f =
  install p;
  Fun.protect ~finally:clear f

(* -- decisions ----------------------------------------------------------- *)

(* one draw per operation, partitioned over the site's applicable kinds in
   a fixed order — the draw count per operation is constant, so the
   decision stream depends only on (seed, operation sequence) *)
let decide_locked p site path =
  p.ops <- p.ops + 1;
  let nth =
    match site with
    | Read ->
      p.n_read <- p.n_read + 1;
      p.n_read
    | Write ->
      p.n_write <- p.n_write + 1;
      p.n_write
    | Rename ->
      p.n_rename <- p.n_rename + 1;
      p.n_rename
  in
  let u = Rng.float p.rng in
  let scripted =
    List.find_map (fun (s, n, f) -> if s = site && n = nth then Some f else None) p.script
  in
  let dealt =
    match scripted with
    | Some f -> Some f
    | None ->
      let r = p.rates in
      let applicable =
        match site with
        | Read -> [ (Eintr, r.r_eintr); (Short, r.r_short) ]
        | Write ->
          [ (Eintr, r.r_eintr); (Short, r.r_short); (Enospc, r.r_enospc); (Crash, r.r_crash) ]
        | Rename -> [ (Enospc, r.r_enospc); (Torn, r.r_torn); (Crash, r.r_crash) ]
      in
      let rec pick acc = function
        | [] -> None
        | (f, rate) :: rest -> if u < acc +. rate then Some f else pick (acc +. rate) rest
      in
      pick 0. applicable
  in
  (match dealt with
   | Some fault -> p.dealt <- { op = p.ops; site; path; fault } :: p.dealt
   | None -> ());
  dealt

let decide site path =
  match Atomic.get current with
  | None -> None
  | Some p ->
    Mutex.lock p.mutex;
    let d = decide_locked p site path in
    Mutex.unlock p.mutex;
    d

(* a seeded cut point for torn/crash faults: derived from the plan rng so
   replays tear at the same offset *)
let cut_point len =
  if len <= 1 then 0
  else
    match Atomic.get current with
    | None -> len / 2
    | Some p ->
      Mutex.lock p.mutex;
      let c = Rng.int p.rng len in
      Mutex.unlock p.mutex;
      c

(* -- the facade ---------------------------------------------------------- *)

let io_error op path e = raise (Io (Printf.sprintf "%s %s: %s" op path (Unix.error_message e)))

(* injected faults enter through these two wrappers; the loops below retry
   EINTR and short transfers whether they are injected or real *)
let injected_write fd buf pos len ~path =
  match decide Write path with
  | Some Eintr -> raise (Unix.Unix_error (Unix.EINTR, "write", path))
  | Some Short when len > 1 -> Unix.write fd buf pos (1 + ((len - 1) / 2))
  | Some Enospc -> raise (Unix.Unix_error (Unix.ENOSPC, "write", path))
  | Some Crash ->
    let cut = cut_point len in
    if cut > 0 then ignore (Unix.write fd buf pos cut);
    raise (Crash_point (Printf.sprintf "write %s" path))
  | _ -> Unix.write fd buf pos len

let injected_read fd buf pos len ~path =
  match decide Read path with
  | Some Eintr -> raise (Unix.Unix_error (Unix.EINTR, "read", path))
  | Some Short when len > 1 -> Unix.read fd buf pos (1 + ((len - 1) / 2))
  | _ -> Unix.read fd buf pos len

(* a pathological plan (eintr=1.) would otherwise spin forever: after this
   many consecutive EINTRs the operation becomes a typed error, which is
   still "a typed one-line error or a clean retry", never a hang *)
let max_consecutive_eintr = 64

let write_file ~path contents =
  let fd =
    try Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    with Unix.Unix_error (e, _, _) -> io_error "open" path e
  in
  (* close exactly once: a second Unix.close on a recycled descriptor
     number would close another domain's file *)
  let closed = ref false in
  let close () =
    if not !closed then begin
      closed := true;
      try Unix.close fd with Unix.Unix_error _ -> ()
    end
  in
  let buf = Bytes.unsafe_of_string contents in
  let rec loop pos eintrs =
    if pos < Bytes.length buf then
      match injected_write fd buf pos (Bytes.length buf - pos) ~path with
      | n -> loop (pos + n) 0
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        if eintrs + 1 >= max_consecutive_eintr then io_error "write" path Unix.EINTR
        else loop pos (eintrs + 1)
      | exception Unix.Unix_error (e, _, _) -> io_error "write" path e
  in
  (* on any failure — typed Io or a Crash_point leaving partial debris —
     release the descriptor; this process lives on even when the write
     "died" *)
  Fun.protect ~finally:close (fun () -> loop 0 0)

let read_file path =
  let fd =
    try Unix.openfile path [ Unix.O_RDONLY ] 0
    with Unix.Unix_error (e, _, _) -> io_error "open" path e
  in
  let close () = try Unix.close fd with Unix.Unix_error _ -> () in
  Fun.protect ~finally:close @@ fun () ->
  (* read into a buffer of the file's size, one byte more so that EOF
     needs no second buffer; a file that grows meanwhile doubles it *)
  let size = try (Unix.fstat fd).Unix.st_size with Unix.Unix_error _ -> 0 in
  let buf = ref (Bytes.create (size + 1)) in
  let rec loop pos eintrs =
    if pos = Bytes.length !buf then begin
      let b = Bytes.create (2 * pos) in
      Bytes.blit !buf 0 b 0 pos;
      buf := b
    end;
    match injected_read fd !buf pos (Bytes.length !buf - pos) ~path with
    | 0 -> Bytes.sub_string !buf 0 pos
    | n -> loop (pos + n) 0
    | exception Unix.Unix_error (Unix.EINTR, _, _) ->
      if eintrs + 1 >= max_consecutive_eintr then io_error "read" path Unix.EINTR
      else loop pos (eintrs + 1)
    | exception Unix.Unix_error (e, _, _) -> io_error "read" path e
  in
  loop 0 0

let truncate_for_tear path =
  match read_file path with
  | contents ->
    let cut = cut_point (String.length contents) in
    (* bypass injection for the tear itself: the tear IS the fault *)
    let oc = open_out_bin path in
    output_string oc (String.sub contents 0 cut);
    close_out oc
  | exception Io _ -> ()

let rename ~src ~dst =
  (match decide Rename dst with
   | Some Enospc -> io_error "rename" dst Unix.ENOSPC
   | Some Torn ->
     (* model a crash mid-rename on a non-atomic filesystem: the
        destination receives a truncated image whose CRC cannot verify *)
     truncate_for_tear src
   | Some Crash -> raise (Crash_point (Printf.sprintf "rename %s" dst))
   | _ -> ());
  try Unix.rename src dst with Unix.Unix_error (e, _, _) -> io_error "rename" dst e

(* a named crash site for engines that want kill-at-a-seam drills (extmem
   manifests commit through this): a no-op unless the installed plan deals
   Crash to the next rename-class operation *)
let crash_site name =
  match decide Rename name with
  | Some Crash -> raise (Crash_point name)
  | Some _ | None -> ()
