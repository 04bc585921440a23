module State = Memrel_machine.State
module I = Memrel_machine.Instr
module Sem = Memrel_machine.Semantics
module L = Memrel_machine.Litmus

let test_init_defaults () =
  let st = State.init ~programs:[ [| I.load ~reg:0 ~loc:0 |] ] ~initial_mem:[ (3, 7) ] in
  Alcotest.(check int) "initial binding" 7 (State.mem_read st 3);
  Alcotest.(check int) "unwritten loc reads 0" 0 (State.mem_read st 99);
  Alcotest.(check int) "register default 0" 0 (State.reg st.State.threads.(0) 5);
  Alcotest.(check bool) "nothing executed" false (State.is_executed st.State.threads.(0) 0);
  Alcotest.(check int) "next = 0" 0 (Memrel_oracle.Enumerate_reference.next_unexecuted st.State.threads.(0))

let test_program_length_cap () =
  Alcotest.check_raises "61 instructions rejected" (Invalid_argument "State.init: program too long")
    (fun () ->
      ignore (State.init ~programs:[ Array.make 61 (I.load ~reg:0 ~loc:0) ] ~initial_mem:[]))

let test_thread_done () =
  let st = State.init ~programs:[ [||] ] ~initial_mem:[] in
  Alcotest.(check bool) "empty program done" true (State.thread_done st.State.threads.(0));
  Alcotest.(check bool) "all done" true (State.all_done st)

let test_buffered_reads () =
  let st = State.init ~programs:[ [||] ] ~initial_mem:[] in
  let th = { (st.State.threads.(0)) with State.fifo = [ (0, 1); (1, 5); (0, 2) ] } in
  Alcotest.(check (option int)) "newest wins" (Some 2) (State.buffered_read_fifo th 0);
  Alcotest.(check (option int)) "other loc" (Some 5) (State.buffered_read_fifo th 1);
  Alcotest.(check (option int)) "absent" None (State.buffered_read_fifo th 9);
  let th2 = { (st.State.threads.(0)) with State.perloc = [| [ 1; 2 ] |] } in
  Alcotest.(check (option int)) "perloc newest is last" (Some 2) (State.buffered_read_perloc th2 0);
  Alcotest.(check (option int)) "perloc absent" None (State.buffered_read_perloc th2 1)

let test_key_canonical () =
  (* zero-valued writes must not split states *)
  let st = State.init ~programs:[ [||] ] ~initial_mem:[] in
  let st_explicit_zero = { st with State.mem = [| 0 |] } in
  Alcotest.(check string) "zero binding same key" (Legacy_key.key st)
    (Legacy_key.key st_explicit_zero);
  Alcotest.(check string) "zero binding same packed key" (State.packed_key st)
    (State.packed_key st_explicit_zero);
  let st_one = { st with State.mem = [| 1 |] } in
  Alcotest.(check bool) "different values different keys" true
    (Legacy_key.key st <> Legacy_key.key st_one);
  Alcotest.(check bool) "different values different packed keys" true
    (State.packed_key st <> State.packed_key st_one)

let test_key_distinguishes_buffers () =
  let st = State.init ~programs:[ [||] ] ~initial_mem:[] in
  let with_fifo =
    { st with
      State.threads = [| { (st.State.threads.(0)) with State.fifo = [ (0, 1) ] } |] }
  in
  Alcotest.(check bool) "buffer state in key" true (Legacy_key.key st <> Legacy_key.key with_fifo);
  Alcotest.(check bool) "buffer state in packed key" true
    (State.packed_key st <> State.packed_key with_fifo)

(* -- packed-key round-trip ---------------------------------------------- *)

let programs_of st = Array.to_list (Array.map (fun th -> th.State.prog) st.State.threads)

let roundtrip st =
  let k = State.packed_key st in
  let st' = State.of_packed_key ~programs:(programs_of st) k in
  Alcotest.(check string) "re-encodes to the same key" k (State.packed_key st');
  st'

(* every section: memory, executed masks, registers, both buffer shapes,
   negative and wide values; memory location 9 lies past the programs'
   locations (it is only initially bound) *)
let handcrafted () =
  let st =
    State.init
      ~programs:[ Array.init 5 (fun i -> I.load ~reg:i ~loc:i); [| I.load ~reg:0 ~loc:0 |] ]
      ~initial_mem:[ (0, 7); (3, -42); (9, 1 lsl 40) ]
  in
  let t0 =
    { (State.set_reg (State.set_reg st.State.threads.(0) 0 3) 2 (-5)) with
      State.executed = 0b10110;
      fifo = [ (0, 1); (1, 5); (0, 2) ];
    }
  in
  let t1 =
    State.set_perloc_queue (State.set_perloc_queue st.State.threads.(1) 0 [ 9 ]) 4 [ 1; 2; 3 ]
  in
  { st with State.threads = [| t0; t1 |] }

let hex s =
  String.to_seq s
  |> Seq.map (fun c -> Printf.sprintf "%02x" (Char.code c))
  |> List.of_seq |> String.concat ""

let unhex h =
  String.init (String.length h / 2) (fun i -> Char.chr (int_of_string ("0x" ^ String.sub h (2 * i) 2)))

(* the packed key of [handcrafted ()], as the IntMap-based encoder wrote
   it: spill runs and resume checkpoints written before the array layout
   must stay readable, and new ones byte-identical *)
let golden_handcrafted =
  "06000e0653128080808080402c0400060409060002020a000400000000040002120806020406"

let test_of_packed_key_handcrafted () =
  let st = handcrafted () in
  let st' = roundtrip st in
  Alcotest.(check (option int)) "fifo order preserved (newest wins)" (Some 2)
    (State.buffered_read_fifo st'.State.threads.(0) 0);
  Alcotest.(check (option int)) "perloc order preserved" (Some 3)
    (State.buffered_read_perloc st'.State.threads.(1) 4);
  Alcotest.(check int) "negative memory value" (-42) (State.mem_read st' 3);
  Alcotest.(check int) "wide memory value" (1 lsl 40) (State.mem_read st' 9);
  Alcotest.(check int) "negative register" (-5) (State.reg st'.State.threads.(0) 2);
  (* a state with explicit zero bindings decodes to the canonical form *)
  let zeroed = State.set_mem st 5 0 in
  ignore (roundtrip zeroed)

let test_packed_key_golden () =
  let st = handcrafted () in
  Alcotest.(check string) "packed key bytes" golden_handcrafted (hex (State.packed_key st));
  let buf = Buffer.create 8 in
  Buffer.add_string buf "x";
  State.add_packed buf st;
  Alcotest.(check string) "add_packed appends the same bytes" ("78" ^ golden_handcrafted)
    (hex (Buffer.contents buf));
  let p = State.packer () in
  State.pack p (State.init ~programs:[ [||] ] ~initial_mem:[]);
  State.pack p st;
  Alcotest.(check string) "a reused packer overwrites" golden_handcrafted
    (hex (State.packed_string p));
  (* the golden bytes decode through either decoder, in or past the layout *)
  let key = unhex golden_handcrafted in
  List.iter
    (fun (label, st') ->
      Alcotest.(check string) (label ^ " re-encodes") golden_handcrafted
        (hex (State.packed_key st'));
      Alcotest.(check int) (label ^ " wide memory value") (1 lsl 40) (State.mem_read st' 9))
    [ ("of_packed_key", State.of_packed_key ~programs:(programs_of st) key);
      ("decoder", State.decode (State.decoder st) (Bytes.of_string key) (String.length key)) ]

(* digests of every reachable state's packed key (sorted, newline-joined),
   taken from the IntMap-based state: the array layout must pack every
   machine-generated state to the same bytes *)
let golden_spaces =
  [ ("inc3", Sem.Pso, 308, "ddffe6f0e46a0544d8dd08c99c413d7f");
    ("sb", Sem.Tso, 34, "53fdb79e1f436d0c8cc36977889ad54e");
    ("mp", Sem.Pso, 29, "a09d9dbe7d188e3e587dd07ba4e6f985");
    ("iriw", Sem.Wo { window = 3 }, 169, "0948061e2cfcfc9b470231ba6247feeb");
    ("inc3", Sem.Sc, 175, "3dcb0aeba72631ce13375aea81c8ebe5") ]

let test_packed_keys_golden_spaces () =
  List.iter
    (fun (name, d, n, digest) ->
      let seen = Hashtbl.create 1024 in
      let rec go st =
        let k = State.packed_key st in
        if not (Hashtbl.mem seen k) then begin
          Hashtbl.add seen k ();
          List.iter (fun (_, s) -> go s) (Sem.transitions d st)
        end
      in
      go (L.initial_state (L.find name));
      let keys = List.sort compare (Hashtbl.fold (fun k () acc -> k :: acc) seen []) in
      Alcotest.(check int) (name ^ " states") n (List.length keys);
      Alcotest.(check string) (name ^ " key digest") digest
        (Digest.to_hex (Digest.string (String.concat "\n" keys))))
    golden_spaces

let test_of_packed_key_random_walks () =
  (* real states: random walks of the operational semantics under every
     discipline, so buffers/registers/memory take machine-generated shapes;
     at each step the decoded state must re-encode identically AND offer
     exactly the original state's transitions *)
  let rng = Random.State.make [| 0x5EED |] in
  List.iter
    (fun d ->
      List.iter
        (fun name ->
          let t = L.find name in
          let programs = t.L.programs in
          let rec walk st steps =
            let st' = State.of_packed_key ~programs (State.packed_key st) in
            Alcotest.(check string)
              (Printf.sprintf "%s key round-trip" name)
              (State.packed_key st) (State.packed_key st');
            match Sem.transitions d st with
            | [] -> ()
            | ts ->
              let ts' = Sem.transitions d st' in
              Alcotest.(check int)
                (name ^ " decoded state has the same transitions")
                (List.length ts) (List.length ts');
              List.iter2
                (fun (l, s) (l', s') ->
                  Alcotest.(check bool) (name ^ " same labels") true (l = l');
                  Alcotest.(check string) (name ^ " same successors")
                    (State.packed_key s) (State.packed_key s'))
                ts ts';
              if steps > 0 then
                walk (snd (List.nth ts (Random.State.int rng (List.length ts)))) (steps - 1)
          in
          for _ = 1 to 20 do
            walk (L.initial_state t) 40
          done)
        [ "inc"; "sb"; "mp"; "iriw" ])
    [ Sem.Sc; Sem.Tso; Sem.Pso; Sem.Wo { window = 3 } ]

(* a key from its zigzag varints, written as the encoder writes them *)
let key_of_varints ns =
  let buf = Buffer.create 16 in
  List.iter
    (fun n ->
      let u = ref ((n lsl 1) lxor (n asr (Sys.int_size - 1))) in
      while !u land lnot 0x7f <> 0 do
        Buffer.add_char buf (Char.chr (0x80 lor (!u land 0x7f)));
        u := !u lsr 7
      done;
      Buffer.add_char buf (Char.chr !u))
    ns;
  Buffer.contents buf

let test_of_packed_key_rejects_malformed () =
  let st =
    State.init ~programs:[ [| I.store ~loc:0 ~src:(I.Imm 1); I.load ~reg:0 ~loc:0 |] ]
      ~initial_mem:[ (0, 5) ]
  in
  let programs = programs_of st in
  let k = State.packed_key st in
  let expect_reject label s =
    match State.of_packed_key ~programs s with
    | _ -> Alcotest.failf "%s: malformed key decoded" label
    | exception Invalid_argument _ -> ()
  in
  (* every strict prefix is truncated; trailing bytes are trailing *)
  for i = 0 to String.length k - 1 do
    expect_reject (Printf.sprintf "prefix %d" i) (String.sub k 0 i)
  done;
  expect_reject "trailing byte" (k ^ "\x00");
  expect_reject "unterminated varint" "\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff";
  (* executed mask outside the 2-instruction program *)
  expect_reject "executed mask out of range" (key_of_varints [ 0; 16; 0; 0; 0 ])

(* the encoder never writes these, so a strict decoder must refuse them:
   accepting one would decode two byte strings to one state *)
let test_decode_rejects_non_canonical () =
  let st =
    State.init ~programs:[ [| I.store ~loc:0 ~src:(I.Imm 1); I.load ~reg:0 ~loc:0 |] ]
      ~initial_mem:[ (0, 5) ]
  in
  let programs = programs_of st in
  (* memory {0: 5}; thread: executed, registers, FIFO and PSO sections *)
  let canonical = key_of_varints [ 1; 0; 5; 0; 0; 0; 0 ] in
  Alcotest.(check string) "the canonical key" canonical (State.packed_key st);
  Alcotest.(check string) "the canonical key decodes" canonical
    (State.packed_key (State.of_packed_key ~programs canonical));
  let expect_reject label s =
    match State.of_packed_key ~programs s with
    | _ -> Alcotest.failf "%s: non-canonical key decoded" label
    | exception Invalid_argument _ -> ()
  in
  List.iter
    (fun (label, ns) -> expect_reject label (key_of_varints ns))
    [ ("zero-valued memory binding", [ 1; 0; 0; 0; 0; 0; 0 ]);
      ("zero-valued register binding", [ 1; 0; 5; 0; 1; 0; 0; 0; 0 ]);
      ("repeated memory index", [ 2; 0; 5; 0; 6; 0; 0; 0; 0 ]);
      ("decreasing memory index", [ 2; 1; 5; 0; 6; 0; 0; 0; 0 ]);
      ("empty PSO list", [ 1; 0; 5; 0; 0; 0; 1; 0; 0 ]);
      ("repeated PSO location", [ 1; 0; 5; 0; 0; 0; 2; 0; 1; 7; 0; 1; 8 ]);
      ("decreasing PSO location", [ 1; 0; 5; 0; 0; 0; 2; 1; 1; 7; 0; 1; 8 ]) ];
  (* the binding count 1 as two bytes (a zero last group), and as ten *)
  expect_reject "overlong varint"
    ("\x82\x00" ^ String.sub canonical 1 (String.length canonical - 1));
  expect_reject "overlong zero" ("\x80\x00" ^ key_of_varints [ 0; 0; 0; 0 ]);
  expect_reject "ten-byte varint"
    ("\x82" ^ String.make 8 '\x80' ^ "\x01" ^ key_of_varints [ 0; 0; 0; 0; 0; 0 ])

(* strictness as a law: mutate real keys at random, and whenever the
   decoder accepts the result it must re-encode to the very same bytes *)
let test_decode_accepts_only_canonical () =
  let rng = Random.State.make [| 0xC0DE |] in
  let accepted = ref 0 in
  List.iter
    (fun name ->
      let t = L.find name in
      let programs = t.L.programs in
      let rec walk st steps =
        let k = Bytes.of_string (State.packed_key st) in
        for _ = 1 to 20 do
          let m = Bytes.copy k in
          for _ = 1 to 1 + Random.State.int rng 2 do
            Bytes.set m
              (Random.State.int rng (Bytes.length m))
              (Char.chr (Random.State.int rng 256))
          done;
          let m = Bytes.to_string m in
          match State.of_packed_key ~programs m with
          | st' ->
            incr accepted;
            Alcotest.(check string) (name ^ ": an accepted key re-encodes to itself") (hex m)
              (hex (State.packed_key st'))
          | exception Invalid_argument _ -> ()
        done;
        match Sem.transitions Sem.Pso st with
        | [] -> ()
        | ts ->
          if steps > 0 then
            walk (snd (List.nth ts (Random.State.int rng (List.length ts)))) (steps - 1)
      in
      for _ = 1 to 10 do
        walk (L.initial_state t) 30
      done)
    [ "inc"; "sb"; "mp"; "iriw" ];
  Alcotest.(check bool) (Printf.sprintf "some mutants decode (%d)" !accepted) true (!accepted > 100)

let disciplines =
  [ ("SC", Sem.Sc); ("TSO", Sem.Tso); ("PSO", Sem.Pso); ("WO", Sem.Wo { window = 3 }) ]

(* every reachable state decoded from its key, as the external enumerator
   decodes them: the depth the decoder sums equals the oracle's, and
   every successor spliced from the parent key equals its own packed key *)
let check_decoder_over_space label ~por d root =
  let buffered = Sem.buffered d in
  let dec = State.decoder ~buffered root and p = State.packer () in
  let seen = Hashtbl.create 1024 and queue = Queue.create () in
  let root_key = State.packed_key root in
  Hashtbl.replace seen root_key ();
  Queue.push root_key queue;
  while not (Queue.is_empty queue) do
    let key = Queue.pop queue in
    let st = State.decode dec (Bytes.of_string key) (String.length key) in
    Alcotest.(check int)
      (label ^ ": decoded depth")
      (Memrel_oracle.state_depth ~buffered st)
      (State.decoded_depth dec);
    List.iter
      (fun (_, st') ->
        let key' = State.packed_key st' in
        State.pack_successor dec p st';
        Alcotest.(check string) (label ^ ": spliced successor key") (hex key')
          (hex (State.packed_string p));
        if not (Hashtbl.mem seen key') then begin
          Hashtbl.replace seen key' ();
          Queue.push key' queue
        end)
      (fst (Memrel_machine.Enumerate.expand ~por d st))
  done

let test_decoder_depth_and_splice () =
  List.iter
    (fun (t : L.t) ->
      List.iter
        (fun (dname, d) ->
          List.iter
            (fun por ->
              check_decoder_over_space
                (Printf.sprintf "%s/%s por=%b" t.L.name dname por)
                ~por d (L.initial_state t))
            [ false; true ])
        disciplines)
    (L.all @ [ L.increment_n 3; L.increment_n 4 ])

let test_splice_of_unrelated_states () =
  (* a state that is no successor of the last decoded one shares none of
     its sections, and packs exactly as [pack] would *)
  let st = handcrafted () in
  let dec = State.decoder st and p = State.packer () in
  let key = State.packed_key st in
  let decoded = State.decode dec (Bytes.of_string key) (String.length key) in
  let other = State.init ~programs:(programs_of st) ~initial_mem:[ (2, 3) ] in
  State.pack_successor dec p other;
  Alcotest.(check string) "unrelated state" (State.packed_key other) (State.packed_string p);
  State.pack_successor dec p decoded;
  Alcotest.(check string) "the decoded state itself" golden_handcrafted
    (hex (State.packed_string p));
  (* a failed decode leaves nothing to splice from *)
  (match State.decode dec (Bytes.of_string "\x02") 1 with
   | _ -> Alcotest.fail "truncated key decoded"
   | exception Invalid_argument _ -> ());
  State.pack_successor dec p (State.set_mem decoded 0 1);
  Alcotest.(check string) "after a failed decode"
    (State.packed_key (State.set_mem decoded 0 1))
    (State.packed_string p)

(* [decode ~shared] against a full decode where the reuse has edge cases:
   a key whose later section binds a register past the decoder's layout
   (the layout widens and the key is decoded in full), a key decoded after
   the widening that reuses the leading sections, and a key decoded after
   a failed decode, where [shared] is ignored *)
let test_shared_decode_edges () =
  let programs = [ [| I.load ~reg:0 ~loc:0; I.load ~reg:1 ~loc:1 |]; [| I.load ~reg:0 ~loc:0 |] ] in
  let root = State.init ~programs ~initial_mem:[] in
  let a =
    State.set_thread (State.init ~programs ~initial_mem:[ (0, 7) ]) 0
      (State.set_reg root.State.threads.(0) 1 4)
  in
  let with_t1_reg st r v =
    let th = st.State.threads.(1) in
    let regs = Array.make (max (r + 1) (Array.length th.State.regs)) 0 in
    regs.(r) <- v;
    State.set_thread st 1 { th with State.regs }
  in
  let b = with_t1_reg a 3 5 and c = with_t1_reg a 3 6 in
  let dec = State.decoder root in
  let decode ?shared st =
    let key = State.packed_key st in
    let got = State.decode ?shared dec (Bytes.of_string key) (String.length key) in
    (* a fresh decoder's layout may be narrower than [dec]'s: compare keys *)
    let full = State.decoder root in
    Alcotest.(check string) "a full decode's state"
      (hex (State.packed_key (State.decode full (Bytes.of_string key) (String.length key))))
      (hex (State.packed_key got));
    Alcotest.(check int) "a full decode's depth" (State.decoded_depth full)
      (State.decoded_depth dec);
    got
  in
  let common x y =
    let x = State.packed_key x and y = State.packed_key y in
    let i = ref 0 in
    while !i < min (String.length x) (String.length y) && x.[!i] = y.[!i] do
      incr i
    done;
    !i
  in
  let da = decode a in
  let db = decode ~shared:(common a b) b in
  Alcotest.(check bool) "a widening decode starts over" false (db.State.mem == da.State.mem);
  let dc = decode ~shared:(common b c) c in
  Alcotest.(check bool) "memory reused after the widening" true (dc.State.mem == db.State.mem);
  Alcotest.(check bool) "thread 0 reused after the widening" true
    (dc.State.threads.(0) == db.State.threads.(0));
  (match State.decode dec (Bytes.of_string "\x02") 1 with
   | _ -> Alcotest.fail "truncated key decoded"
   | exception Invalid_argument _ -> ());
  let da' = decode ~shared:(common c a) a in
  Alcotest.(check bool) "no reuse after a failed decode" false (da'.State.mem == dc.State.mem)

(* the section ends of a key, measured without [packed_ends]: memory
   packs alone to its own section, and a thread alone after an empty
   memory (one count byte) to its own *)
let measured_ends st =
  let len st = String.length (State.packed_key st) in
  let mem_end = len { st with State.threads = [||] } in
  let ends = Array.make (Array.length st.State.threads + 1) mem_end in
  Array.iteri
    (fun k th ->
      ends.(k + 1) <- ends.(k) + len { State.mem = [||]; threads = [| th |] } - 1)
    st.State.threads;
  ends

(* every reachable state kept in memory with a copy of its key and section
   ends, as the in-RAM worklist keeps them: each successor spliced from
   them has its own packed key, and the section ends a fresh [pack] of it
   records *)
let check_splice_over_space label ~por d root =
  let p = State.packer () and fresh = State.packer () in
  let seen = Hashtbl.create 1024 and stack = Stack.create () in
  let admit st =
    let key = State.packed_string p in
    if not (Hashtbl.mem seen key) then begin
      Hashtbl.replace seen key ();
      Alcotest.(check (array int)) (label ^ ": section ends") (measured_ends st)
        (State.packed_ends p);
      Stack.push (st, Bytes.of_string key, Array.copy (State.packed_ends p)) stack
    end
  in
  State.pack p root;
  admit root;
  while not (Stack.is_empty stack) do
    let st, key, ends = Stack.pop stack in
    List.iter
      (fun (_, st') ->
        State.splice p ~parent:st key ends st';
        State.pack fresh st';
        Alcotest.(check string) (label ^ ": spliced key") (hex (State.packed_key st'))
          (hex (State.packed_string p));
        Alcotest.(check (array int)) (label ^ ": spliced section ends") (State.packed_ends fresh)
          (State.packed_ends p);
        admit st')
      (fst (Memrel_machine.Enumerate.expand ~por d st))
  done

let test_splice_from_memory () =
  List.iter
    (fun (t : L.t) ->
      List.iter
        (fun (dname, d) ->
          List.iter
            (fun por ->
              check_splice_over_space
                (Printf.sprintf "%s/%s por=%b" t.L.name dname por)
                ~por d (L.initial_state t))
            [ false; true ])
        disciplines)
    (L.all @ [ L.increment_n 3; L.increment_n 4 ])

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("init defaults", test_init_defaults);
      ("program length cap", test_program_length_cap);
      ("thread_done", test_thread_done);
      ("buffered reads", test_buffered_reads);
      ("canonical keys", test_key_canonical);
      ("keys distinguish buffers", test_key_distinguishes_buffers);
      ("of_packed_key round-trips handcrafted states", test_of_packed_key_handcrafted);
      ("of_packed_key round-trips random walks", test_of_packed_key_random_walks);
      ("of_packed_key rejects malformed keys", test_of_packed_key_rejects_malformed);
      ("packed key bytes match the golden encoding", test_packed_key_golden);
      ("reachable packed keys match golden digests", test_packed_keys_golden_spaces);
      ("decode rejects non-canonical keys", test_decode_rejects_non_canonical);
      ("decode accepts only keys pack writes", test_decode_accepts_only_canonical);
      ("decoded depth and spliced successor keys over the corpus",
       test_decoder_depth_and_splice);
      ("splicing a state that is no successor", test_splice_of_unrelated_states);
      ("splicing from in-memory parents over the corpus", test_splice_from_memory);
      ("decoding with a shared prefix: widening and after a failed decode",
       test_shared_decode_edges);
    ]
