module A = Memrel_machine.Arena_set

let add t s = A.add t (Bytes.of_string s) (String.length s)

(* the key sits at the front of a longer scratch buffer, as the packer
   leaves it: bytes past [len] must not matter *)
let add_in_scratch t s =
  let b = Bytes.make (String.length s + 17) '\xAA' in
  Bytes.blit_string s 0 b 0 (String.length s);
  A.add t b (String.length s)

(* adds [keys] (a duplicate-free list) twice, checking every answer, then
   [absent] keys (none of them in [keys], all distinct), which must be new *)
let exercise label t keys ~absent =
  List.iter
    (fun k -> Alcotest.(check bool) (label ^ ": new key added") true (add_in_scratch t k))
    keys;
  List.iter (fun k -> Alcotest.(check bool) (label ^ ": repeat rejected") false (add t k)) keys;
  List.iter (fun k -> Alcotest.(check bool) (label ^ ": absent key is new") true (add t k)) absent;
  Alcotest.(check int) (label ^ ": length") (List.length keys + List.length absent) (A.length t)

let test_index_resize () =
  (* the 1024-slot index doubles five times over 20000 keys *)
  let keys = List.init 20_000 (fun i -> Printf.sprintf "key-%d" i) in
  exercise "resize" (A.create ()) keys
    ~absent:[ "key-20000"; "key-"; ""; "key-49999" ]

let test_colliding_hashes () =
  (* every key hashes alike: each probe walks one chain and must tell keys
     apart by their bytes alone, across index resizes *)
  let keys = List.init 300 (fun i -> String.make (i mod 7) 'p' ^ string_of_int i) in
  exercise "collide" (A.create ~hash:(fun _ _ _ -> 12345) ()) keys
    ~absent:[ "p"; "pp1"; "300"; "" ]

let test_shared_prefixes () =
  (* every prefix of one string, the empty key included, plus keys that
     differ only in their last byte or in one byte of a long common run *)
  let base = String.init 40 (fun i -> Char.chr (65 + (i mod 26))) in
  let prefixes = List.init 41 (fun n -> String.sub base 0 n) in
  let flips =
    List.init 40 (fun i ->
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c + 1) else c) base)
  in
  exercise "prefixes" (A.create ()) (prefixes @ flips)
    ~absent:[ base ^ "A"; "B"; String.sub base 1 39 ]

let test_long_keys () =
  (* keys longer than the index's length field (their length moves into the
     arena), longer than the chunk in use (a bigger chunk is started) and
     longer than any chunk (each gets a chunk of its own), mixed with short
     keys so chunk boundaries fall everywhere *)
  let long n c = String.make n c in
  let keys =
    [ long 1022 'a'; long 1023 'a'; long 1024 'a'; long 5000 'a'; long 5000 'b'; "short";
      long 100_000 'd'; long ((1 lsl 20) + 1) 'e'; "s"; long (1 lsl 20) 'f' ]
    @ List.init 2000 (fun i -> String.make (i mod 90) 'g' ^ string_of_int i)
  in
  exercise "long" (A.create ()) keys
    ~absent:[ long 1025 'a'; long 4999 'a'; long 5000 'c'; long 1023 'b'; long (1 lsl 20) 'e' ]

let test_empty_key_at_chunk_end () =
  (* 64-byte keys fill the 4 KiB .. 512 KiB chunks and then the first 1 MiB
     one exactly; the empty key added next must still get a valid slot *)
  let keys = List.init (((1 lsl 21) - 4096) / 64) (fun i -> Printf.sprintf "%064d" i) in
  exercise "chunk end" (A.create ()) (keys @ [ "" ]) ~absent:[ "x" ]

let test_same_answers_as_hashtbl () =
  (* random short keys over a small alphabet, so repeats are common *)
  let rng = Random.State.make [| 7 |] in
  let t = A.create () and h = Hashtbl.create 16 in
  for _ = 1 to 20_000 do
    let k =
      String.init (Random.State.int rng 6) (fun _ -> Char.chr (97 + Random.State.int rng 3))
    in
    let fresh = not (Hashtbl.mem h k) in
    Hashtbl.replace h k ();
    Alcotest.(check bool) "add agrees with Hashtbl" fresh (add t k)
  done;
  Alcotest.(check int) "same size" (Hashtbl.length h) (A.length t)

let contents t =
  let acc = ref [] in
  A.iter t (fun b off len _ -> acc := Bytes.sub_string b off len :: !acc);
  List.rev !acc

let test_iter_clear () =
  (* keys with shared prefixes, bytes past 0x7f, empty and long keys:
     [iter] yields each key once, in String.compare order, and [clear]
     empties the set down to a fresh one's footprint *)
  let rng = Random.State.make [| 11 |] in
  let keys =
    [ ""; "\xff"; "\x00"; "\x00\x00"; String.make 2000 'z'; String.make 2000 'y' ^ "\x80" ]
    @ List.init 3000 (fun _ ->
          String.init (Random.State.int rng 24) (fun _ -> Char.chr (Random.State.int rng 256)))
  in
  let sorted = List.sort_uniq String.compare keys in
  let t = A.create () in
  let fresh = A.footprint t in
  for round = 1 to 2 do
    List.iter (fun k -> ignore (add t k)) keys;
    let label s = Printf.sprintf "round %d: %s" round s in
    Alcotest.(check (list string)) (label "iter: each key once, sorted") sorted (contents t);
    Alcotest.(check bool) (label "footprint grows") true (A.footprint t > fresh);
    A.clear t;
    Alcotest.(check int) (label "cleared length") 0 (A.length t);
    Alcotest.(check int) (label "cleared footprint") fresh (A.footprint t);
    Alcotest.(check (list string)) (label "cleared iter") [] (contents t)
  done

(* [iter]'s order against [List.sort String.compare], on random sets
   mixing the shapes a radix sort gets wrong: the empty key, keys that are
   prefixes of others, long runs of equal bytes, bytes 0x00 and 0xff,
   keys of 1,023 bytes or more (their length sits in the arena), and many
   keys sharing 14-byte prefixes; under the default hash and a degenerate
   one (every key in one probe chain, so the slots come in insertion
   order) *)
let test_iter_order_random () =
  let rng = Random.State.make [| 19 |] in
  let byte () =
    match Random.State.int rng 4 with
    | 0 -> '\x00'
    | 1 -> '\xff'
    | _ -> Char.chr (Random.State.int rng 256)
  in
  let random_key () =
    match Random.State.int rng 6 with
    | 0 -> ""
    | 1 -> String.init (Random.State.int rng 4) (fun _ -> byte ())
    | 2 -> String.make (Random.State.int rng 30) (if Random.State.bool rng then 'a' else '\x00')
    | 3 ->
      (* one of a few 14-byte prefixes, then a short random tail *)
      Printf.sprintf "prefix-%07d" (Random.State.int rng 3)
      ^ String.init (Random.State.int rng 12) (fun _ -> byte ())
    | 4 ->
      String.make (1023 + Random.State.int rng 3) 'L'
      ^ String.init (Random.State.int rng 3) (fun _ -> byte ())
    | _ -> String.init (Random.State.int rng 40) (fun _ -> byte ())
  in
  List.iter
    (fun (label, make) ->
      for round = 1 to 12 do
        let keys = List.init (Random.State.int rng (round * 150)) (fun _ -> random_key ()) in
        (* every prefix of a few keys as well *)
        let keys =
          keys
          @ List.concat_map
              (fun k -> List.init (String.length k + 1) (fun n -> String.sub k 0 n))
              (List.filteri (fun i k -> i < 3 && String.length k < 100) keys)
        in
        let t = make () in
        List.iter (fun k -> ignore (add t k)) keys;
        Alcotest.(check (list string))
          (Printf.sprintf "%s round %d: iter order" label round)
          (List.sort_uniq String.compare keys) (contents t)
      done)
    [ ("default hash", fun () -> A.create ());
      ("degenerate hash", fun () -> A.create ~hash:(fun _ _ _ -> 7) ()) ]

(* [iter]'s order against [List.sort String.compare] at the sort's digit
   boundaries. Each set holds keys with distinct first bytes, so the top
   range partitions, beside a group that shares a prefix of exactly 7, 14
   or 21 bytes (one, two or three whole digits) and differs in the digit
   after it: the prefix itself, keys ending inside that digit or on its
   boundary, and longer ones. The groups are smaller and larger than the
   insertion sort's cutoff of 12 keys; a group of 1,023-byte and longer
   keys (their length sits in the arena) and the empty key ride along. *)
let test_iter_order_digit_edges () =
  let rng = Random.State.make [| 29 |] in
  let bytes n = String.init n (fun _ -> Char.chr (Random.State.int rng 256)) in
  let check label keys =
    List.iter
      (fun (hash, make) ->
        let t = make () in
        List.iter (fun k -> ignore (add t k)) keys;
        Alcotest.(check (list string))
          (Printf.sprintf "%s, %s hash: iter order" label hash)
          (List.sort_uniq String.compare keys) (contents t))
      [ ("default", fun () -> A.create ()); ("degenerate", fun () -> A.create ~hash:(fun _ _ _ -> 7) ()) ]
  in
  let others = List.init 20 (fun i -> String.make 1 (Char.chr (i * 12)) ^ bytes (i mod 9)) in
  let group prefix size =
    prefix :: String.sub prefix 0 (String.length prefix - 1)
    :: List.init size (fun i -> prefix ^ bytes (1 + (i mod 15)))
  in
  List.iter
    (fun size ->
      List.iter
        (fun shared ->
          let prefix = "M" ^ bytes (shared - 1) in
          check
            (Printf.sprintf "%d keys sharing %d bytes" size shared)
            (("" :: others) @ group prefix size))
        [ 7; 14; 21 ];
      check
        (Printf.sprintf "%d keys of 1,023 bytes or more" size)
        (("" :: others) @ group ("L" ^ bytes 1022) size))
    [ 3; 12; 13; 40; 200 ]

(* values beside the keys: a repeated add ANDs its value into the stored
   one, [iter] yields each key's AND over all its adds, and only the low
   [value_bytes] bytes are kept; over short keys, keys whose length sits
   in the arena, and every value width *)
let test_values_anded () =
  let rng = Random.State.make [| 23 |] in
  List.iter
    (fun value_bytes ->
      let t = A.create ~value_bytes () and h = Hashtbl.create 16 in
      let keep = if value_bytes = 8 then -1 else (1 lsl (8 * value_bytes)) - 1 in
      for _ = 1 to 5_000 do
        let k =
          if Random.State.int rng 50 = 0 then String.make (1023 + Random.State.int rng 3) 'L'
          else
            String.init (Random.State.int rng 5) (fun _ -> Char.chr (97 + Random.State.int rng 4))
        in
        let v = Random.State.bits rng lor (Random.State.bits rng lsl 30) in
        let fresh = not (Hashtbl.mem h k) in
        Hashtbl.replace h k (v land Option.value ~default:(-1) (Hashtbl.find_opt h k));
        Alcotest.(check bool) "add_value agrees with Hashtbl" fresh
          (A.add_value t (Bytes.of_string k) (String.length k) v)
      done;
      let want =
        Hashtbl.fold (fun k v acc -> (k, v land keep) :: acc) h []
        |> List.sort (fun (a, _) (b, _) -> String.compare a b)
      in
      let got = ref [] in
      A.iter t (fun b off len v -> got := (Bytes.sub_string b off len, v) :: !got);
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%d-byte values: each key's AND, in key order" value_bytes)
        want (List.rev !got))
    [ 1; 2; 3; 5; 8 ]

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("index resize", test_index_resize);
      ("colliding hashes", test_colliding_hashes);
      ("keys sharing prefixes", test_shared_prefixes);
      ("keys longer than the length field and a chunk", test_long_keys);
      ("empty key at a full chunk's end", test_empty_key_at_chunk_end);
      ("same answers as a Hashtbl", test_same_answers_as_hashtbl);
      ("iter and clear", test_iter_clear);
      ("iter order equals String.compare on random sets", test_iter_order_random);
      ("values beside the keys are ANDed", test_values_anded);
      ("iter order at digit boundaries, cutoff-sized groups and long keys",
       test_iter_order_digit_edges);
    ]
