let magic = "MRELSNAP"

let current_version = 1

type error =
  | Io of string
  | Not_a_snapshot
  | Version_mismatch of { expected : int; found : int }
  | Tag_mismatch of { expected : string; found : string }
  | Truncated
  | Crc_mismatch

let error_to_string = function
  | Io msg -> "i/o error: " ^ msg
  | Not_a_snapshot -> "not a memrel snapshot (bad magic)"
  | Version_mismatch { expected; found } ->
    Printf.sprintf "snapshot format version %d (this build reads version %d)" found expected
  | Tag_mismatch { expected; found } ->
    Printf.sprintf "snapshot tag %S (expected %S)" found expected
  | Truncated -> "snapshot truncated"
  | Crc_mismatch -> "snapshot payload fails its checksum"

(* -- CRC-32 (IEEE 802.3, polynomial 0xEDB88320) ------------------------

   Slicing-by-8 (Kounavis and Berry): eight tables, [tables.(k*256 + n)]
   the CRC of byte n followed by k zero bytes, fold eight payload bytes
   per step from one 64-bit little-endian load. The tail, and every byte
   on a big-endian host, goes through table 0 one byte at a time. *)

(* built eagerly at module initialization: forcing a shared [lazy] from two
   domains at once (two serve workers' first disk IO) raises
   [CamlinternalLazy.Undefined] *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) * 256) + n) in
      t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

external get64u : string -> int -> int64 = "%caml_string_get64u"

(* table k's entry i *)
let[@inline] t k i = Array.unsafe_get tables ((k * 256) + i)

let crc32 s =
  let n = String.length s and c = ref 0xFFFFFFFF and i = ref 0 in
  if not Sys.big_endian then
    while !i + 8 <= n do
      let w = get64u s !i in
      let lo = !c lxor (Int64.to_int w land 0xFFFFFFFF)
      and hi = Int64.to_int (Int64.shift_right_logical w 32) in
      c :=
        t 7 (lo land 0xff)
        lxor t 6 ((lo lsr 8) land 0xff)
        lxor t 5 ((lo lsr 16) land 0xff)
        lxor t 4 (lo lsr 24)
        lxor t 3 (hi land 0xff)
        lxor t 2 ((hi lsr 8) land 0xff)
        lxor t 1 ((hi lsr 16) land 0xff)
        lxor t 0 (hi lsr 24);
      i := !i + 8
    done;
  while !i < n do
    c := t 0 ((!c lxor Char.code (String.unsafe_get s !i)) land 0xff) lxor (!c lsr 8);
    incr i
  done;
  !c lxor 0xFFFFFFFF

(* -- big-endian fixed-width fields ------------------------------------- *)

let add_u16 buf v =
  Buffer.add_char buf (Char.chr ((v lsr 8) land 0xff));
  Buffer.add_char buf (Char.chr (v land 0xff))

let add_u32 buf v =
  for shift = 3 downto 0 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * shift)) land 0xff))
  done

let add_u64 buf v =
  for shift = 7 downto 0 do
    Buffer.add_char buf (Char.chr ((v lsr (8 * shift)) land 0xff))
  done

let get_bytes s pos n =
  if pos + n > String.length s then None else Some (String.sub s pos n)

let get_uint s pos n =
  match get_bytes s pos n with
  | None -> None
  | Some b ->
    let v = ref 0 in
    String.iter (fun ch -> v := (!v lsl 8) lor Char.code ch) b;
    Some !v

(* -- write (tmp + rename) ---------------------------------------------- *)

(* All container IO goes through the Faultio facade: transient faults
   (EINTR, short transfers) are retried inside it, hard failures surface
   as the typed [Io] error here, and injected torn renames / crash points
   leave exactly the debris a real crash would — which the CRC and the
   orphan cleanup below are the defense against. *)

let write ~file ~tag payload =
  if String.length tag > 0xffff then invalid_arg "Snapshot.write: tag too long";
  let buf = Buffer.create (String.length payload + 64) in
  Buffer.add_string buf magic;
  add_u32 buf current_version;
  add_u16 buf (String.length tag);
  Buffer.add_string buf tag;
  add_u64 buf (String.length payload);
  add_u32 buf (crc32 payload);
  Buffer.add_string buf payload;
  let tmp = file ^ ".tmp" in
  match
    Faultio.write_file ~path:tmp (Buffer.contents buf);
    Faultio.rename ~src:tmp ~dst:file
  with
  | () -> Ok ()
  | exception (Faultio.Io msg | Sys_error msg) ->
    (* a failed write or rename must not strand the temporary: the next
       write to the same path would otherwise find a stale .tmp, and cache
       directories would accumulate garbage. A Crash_point deliberately
       skips this cleanup — a killed process cleans nothing. *)
    (try Sys.remove tmp with Sys_error _ -> ());
    Error (Io msg)

(* -- read + validate --------------------------------------------------- *)

let read_file file =
  match Faultio.read_file file with
  | s -> Ok s
  | exception (Faultio.Io msg | Sys_error msg) -> Error (Io msg)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let read ~file ~tag =
  let* s = read_file file in
  let* () =
    match get_bytes s 0 8 with
    | Some m when String.equal m magic -> Ok ()
    | _ -> Error Not_a_snapshot
  in
  let* version =
    match get_uint s 8 4 with Some v -> Ok v | None -> Error Not_a_snapshot
  in
  let* () =
    if version = current_version then Ok ()
    else Error (Version_mismatch { expected = current_version; found = version })
  in
  let* tag_len = match get_uint s 12 2 with Some v -> Ok v | None -> Error Truncated in
  let* found_tag =
    match get_bytes s 14 tag_len with Some t -> Ok t | None -> Error Truncated
  in
  let* () =
    if String.equal found_tag tag then Ok ()
    else Error (Tag_mismatch { expected = tag; found = found_tag })
  in
  let pos = 14 + tag_len in
  let* payload_len = match get_uint s pos 8 with Some v -> Ok v | None -> Error Truncated in
  let* crc = match get_uint s (pos + 8) 4 with Some v -> Ok v | None -> Error Truncated in
  let* payload =
    match get_bytes s (pos + 12) payload_len with
    | Some p when pos + 12 + payload_len = String.length s -> Ok p
    | _ -> Error Truncated
  in
  if crc32 payload = crc then Ok payload else Error Crc_mismatch
