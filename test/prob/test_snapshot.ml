module Snapshot = Memrel_prob.Snapshot

let tmp_file () = Filename.temp_file "memrel_snap" ".bin"

let with_tmp f =
  let file = tmp_file () in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) (fun () -> f file)

let read_all file =
  let ic = open_in_bin file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_all file s =
  let oc = open_out_bin file in
  Fun.protect ~finally:(fun () -> close_out_noerr oc) (fun () -> output_string oc s)

let err = Alcotest.of_pp (fun fmt e -> Format.pp_print_string fmt (Snapshot.error_to_string e))

let check_read name expected file ~tag =
  let got =
    match Snapshot.read ~file ~tag with Ok _ -> Ok () | Error e -> Error e
  in
  Alcotest.(check (result unit err)) name expected got

let test_round_trip () =
  with_tmp @@ fun file ->
  let payload = String.init 257 (fun i -> Char.chr (i land 0xff)) in
  (match Snapshot.write ~file ~tag:"test/tag" payload with
   | Ok () -> ()
   | Error e -> Alcotest.failf "write: %s" (Snapshot.error_to_string e));
  match Snapshot.read ~file ~tag:"test/tag" with
  | Ok p -> Alcotest.(check string) "payload survives" payload p
  | Error e -> Alcotest.failf "read: %s" (Snapshot.error_to_string e)

let test_empty_payload () =
  with_tmp @@ fun file ->
  Alcotest.(check bool) "write ok" true (Snapshot.write ~file ~tag:"t" "" = Ok ());
  Alcotest.(check bool) "empty payload round-trips" true
    (Snapshot.read ~file ~tag:"t" = Ok "")

let test_wrong_magic () =
  with_tmp @@ fun file ->
  write_all file "NOTASNAPxxxxxxxxxxxxxxxxxxxxxxxx";
  check_read "bad magic rejected" (Error Snapshot.Not_a_snapshot) file ~tag:"t"

let test_short_file () =
  with_tmp @@ fun file ->
  write_all file "MREL";
  check_read "shorter than the magic" (Error Snapshot.Not_a_snapshot) file ~tag:"t"

let test_wrong_version () =
  with_tmp @@ fun file ->
  (match Snapshot.write ~file ~tag:"t" "payload" with Ok () -> () | Error _ -> assert false);
  let s = Bytes.of_string (read_all file) in
  (* bump the big-endian u32 version at offset 8 *)
  Bytes.set s 11 (Char.chr (Char.code (Bytes.get s 11) + 1));
  write_all file (Bytes.to_string s);
  (* the container format is at version 1 *)
  check_read "version mismatch rejected"
    (Error (Snapshot.Version_mismatch { expected = 1; found = 2 }))
    file ~tag:"t"

let test_wrong_tag () =
  with_tmp @@ fun file ->
  (match Snapshot.write ~file ~tag:"engine-a" "payload" with Ok () -> () | Error _ -> assert false);
  check_read "tag mismatch rejected"
    (Error (Snapshot.Tag_mismatch { expected = "engine-b"; found = "engine-a" }))
    file ~tag:"engine-b"

let test_truncated () =
  with_tmp @@ fun file ->
  (match Snapshot.write ~file ~tag:"t" "a long enough payload" with
   | Ok () -> ()
   | Error _ -> assert false);
  let s = read_all file in
  write_all file (String.sub s 0 (String.length s - 5));
  check_read "truncated payload rejected" (Error Snapshot.Truncated) file ~tag:"t"

let test_trailing_garbage () =
  with_tmp @@ fun file ->
  (match Snapshot.write ~file ~tag:"t" "payload" with Ok () -> () | Error _ -> assert false);
  write_all file (read_all file ^ "garbage");
  check_read "trailing bytes rejected" (Error Snapshot.Truncated) file ~tag:"t"

let test_corrupted_payload () =
  with_tmp @@ fun file ->
  (match Snapshot.write ~file ~tag:"t" "payload payload payload" with
   | Ok () -> ()
   | Error _ -> assert false);
  let s = Bytes.of_string (read_all file) in
  (* flip one bit inside the payload (the last byte of the file) *)
  let last = Bytes.length s - 1 in
  Bytes.set s last (Char.chr (Char.code (Bytes.get s last) lxor 1));
  write_all file (Bytes.to_string s);
  check_read "bit flip caught by CRC" (Error Snapshot.Crc_mismatch) file ~tag:"t"

let test_missing_file () =
  match Snapshot.read ~file:"/nonexistent/memrel.snap" ~tag:"t" with
  | Error (Snapshot.Io _) -> ()
  | Ok _ | Error _ -> Alcotest.fail "expected an Io error"

let test_overwrite_is_atomic_replacement () =
  with_tmp @@ fun file ->
  (match Snapshot.write ~file ~tag:"t" "first" with Ok () -> () | Error _ -> assert false);
  (match Snapshot.write ~file ~tag:"t" "second" with Ok () -> () | Error _ -> assert false);
  Alcotest.(check bool) "latest payload wins" true (Snapshot.read ~file ~tag:"t" = Ok "second");
  Alcotest.(check bool) "no tmp file left behind" false (Sys.file_exists (file ^ ".tmp"))

let test_failed_write_cleans_tmp () =
  (* inject a rename failure: the destination path is an existing
     directory, so the payload is fully written to file.tmp and the final
     rename fails. The write must report Io AND remove the temporary. *)
  let dir = Filename.temp_file "memrel_snap" ".dir" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () -> try Sys.rmdir dir with Sys_error _ -> ())
    (fun () ->
      (match Snapshot.write ~file:dir ~tag:"t" "payload" with
       | Error (Snapshot.Io _) -> ()
       | Ok () -> Alcotest.fail "write onto a directory unexpectedly succeeded"
       | Error e -> Alcotest.failf "expected Io, got %s" (Snapshot.error_to_string e));
      Alcotest.(check bool) "tmp file removed after the failed rename" false
        (Sys.file_exists (dir ^ ".tmp")))

let test_unwritable_target_cleans_tmp () =
  (* the tmp file itself cannot be created (missing parent): no residue *)
  let missing = Filename.concat (Filename.get_temp_dir_name ()) "memrel_snap_missing_dir" in
  let file = Filename.concat missing "snap.bin" in
  (match Snapshot.write ~file ~tag:"t" "payload" with
   | Error (Snapshot.Io _) -> ()
   | Ok () -> Alcotest.fail "write into a missing directory unexpectedly succeeded"
   | Error e -> Alcotest.failf "expected Io, got %s" (Snapshot.error_to_string e));
  Alcotest.(check bool) "no tmp residue" false (Sys.file_exists (file ^ ".tmp"))

let test_crc32_known_vector () =
  (* the standard IEEE check value *)
  Alcotest.(check int) "crc32(\"123456789\")" 0xCBF43926 (Snapshot.crc32 "123456789");
  Alcotest.(check int) "crc32(\"\")" 0 (Snapshot.crc32 "")

let test_crc32_matches_bytewise () =
  (* slicing-by-8 against the bytewise table walk: every length from 0 to
     64 (every tail length, at every 8-byte phase) and 1 MB *)
  let rng = Random.State.make [| 32 |] in
  let random n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  List.iter
    (fun s ->
      Alcotest.(check int)
        (Printf.sprintf "crc32 of %d random bytes" (String.length s))
        (Memrel_oracle.Crc32_reference.crc32 s) (Snapshot.crc32 s))
    (List.init 65 random @ [ random 1_000_000 ]);
  Alcotest.(check int) "reference check value" 0xCBF43926
    (Memrel_oracle.Crc32_reference.crc32 "123456789")

let test_crc32_from_two_domains () =
  (* serve workers checksum from several domains at once; both must see
     the full table from their very first call *)
  let payload = String.init 4096 (fun i -> Char.chr (i * 7 land 0xff)) in
  let expected = Snapshot.crc32 payload in
  let ready = Atomic.make 0 in
  let worker () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    List.init 50 (fun _ -> Snapshot.crc32 payload)
  in
  let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
  List.iter
    (fun d ->
      List.iter (Alcotest.(check int) "same crc from every domain" expected) (Domain.join d))
    [ d1; d2 ];
  Alcotest.(check int) "check value from a domain" 0xCBF43926
    (Domain.join (Domain.spawn (fun () -> Snapshot.crc32 "123456789")))

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("payload round-trips", test_round_trip);
      ("empty payload round-trips", test_empty_payload);
      ("wrong magic rejected", test_wrong_magic);
      ("short file rejected", test_short_file);
      ("wrong version rejected", test_wrong_version);
      ("wrong tag rejected", test_wrong_tag);
      ("truncated file rejected", test_truncated);
      ("trailing garbage rejected", test_trailing_garbage);
      ("corrupted payload fails CRC", test_corrupted_payload);
      ("missing file is an Io error", test_missing_file);
      ("overwrite replaces atomically", test_overwrite_is_atomic_replacement);
      ("failed rename removes the tmp file", test_failed_write_cleans_tmp);
      ("unwritable target leaves no tmp residue", test_unwritable_target_cleans_tmp);
      ("crc32 matches the IEEE check value", test_crc32_known_vector);
      ("crc32 from two domains at once", test_crc32_from_two_domains);
      ("crc32 equals the bytewise reference", test_crc32_matches_bytewise);
    ]
