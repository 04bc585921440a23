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
  A.iter t (fun b off len -> acc := Bytes.sub_string b off len :: !acc);
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
    ]
