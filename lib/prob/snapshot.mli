(** Versioned, CRC-guarded, atomically written snapshot files.

    The container format under every checkpoint in memrel (see
    [Par.run]). A snapshot is a single binary file:

    {v
      offset  size  field
      0       8     magic "MRELSNAP"
      8       4     format version, big-endian u32 (currently 1)
      12      2     tag length, big-endian u16
      14      n     tag (engine identifier, e.g. "par/chunks")
      14+n    8     payload length, big-endian u64
      22+n    4     CRC-32 (IEEE 802.3) of the payload, big-endian u32
      26+n    *     payload bytes
    v}

    Writes go to [file ^ ".tmp"] and are renamed into place, so a crash
    mid-write leaves either the previous snapshot or none — never a torn
    one. Reads validate magic, version, tag, length and CRC before handing
    the payload back, so truncated, corrupted, foreign or stale-format files
    are rejected with a typed {!error} instead of being decoded. The payload
    itself is opaque to this module (engines marshal their own state into
    it; the tag is what keeps one engine from decoding another's bytes). *)

type error =
  | Io of string  (** open/read/write/rename failure, with the message *)
  | Not_a_snapshot  (** too short for a header, or wrong magic *)
  | Version_mismatch of { expected : int; found : int }
  | Tag_mismatch of { expected : string; found : string }
  | Truncated  (** declared payload length exceeds the bytes present *)
  | Crc_mismatch  (** payload bytes fail the checksum *)

val error_to_string : error -> string

val write : file:string -> tag:string -> string -> (unit, error) result
(** [write ~file ~tag payload] writes atomically (tmp + rename). The tag
    must fit a u16 length ([Invalid_argument] otherwise). *)

val read : file:string -> tag:string -> (string, error) result
(** [read ~file ~tag] validates the full header and checksum and returns
    the payload. *)

val crc32 : string -> int
(** The IEEE 802.3 CRC-32 used by the format, exposed for tests. *)
