module Model = Memrel_memmodel.Model
module Op = Memrel_memmodel.Op

let pairs = [ (Op.ST, Op.ST); (Op.ST, Op.LD); (Op.LD, Op.ST); (Op.LD, Op.LD) ]

let relaxed m = List.map (fun (e, l) -> Model.relaxes m ~earlier:e ~later:l) pairs

let test_table1_matrix () =
  (* Table 1 rows: SC relaxes nothing; TSO only ST/LD; PSO ST/ST and ST/LD;
     WO everything *)
  Alcotest.(check (list bool)) "SC" [ false; false; false; false ] (relaxed Model.sc);
  Alcotest.(check (list bool)) "TSO" [ false; true; false; false ] (relaxed (Model.tso ()));
  Alcotest.(check (list bool)) "PSO" [ true; true; false; false ] (relaxed (Model.pso ()));
  Alcotest.(check (list bool)) "WO" [ true; true; true; true ] (relaxed (Model.wo ()))

let test_strictness_order () =
  (* each model's relaxed set contains the previous one's *)
  let sets = List.map relaxed Model.all_standard in
  let rec check = function
    | a :: (b :: _ as rest) ->
      List.iter2
        (fun x y -> if x && not y then Alcotest.fail "strictness order violated")
        a b;
      check rest
    | _ -> ()
  in
  check sets

let test_probabilities () =
  let m = Model.tso ~s:0.7 () in
  Alcotest.(check (float 0.0)) "relaxed pair gets s" 0.7
    (Model.swap_probability m ~earlier:Op.ST ~later:Op.LD);
  Alcotest.(check (float 0.0)) "other pairs 0" 0.0
    (Model.swap_probability m ~earlier:Op.LD ~later:Op.LD);
  Alcotest.(check (float 0.0)) "default s" 0.5 (Model.s (Model.wo ()))

let test_custom () =
  let m = Model.custom ~name:"ldld-only" ~st_st:0.0 ~st_ld:0.0 ~ld_st:0.0 ~ld_ld:0.25 in
  Alcotest.(check bool) "family" true (Model.family m = Model.Custom);
  Alcotest.(check (float 0.0)) "matrix honored" 0.25
    (Model.swap_probability m ~earlier:Op.LD ~later:Op.LD);
  Alcotest.(check (list bool)) "relaxes exactly LD/LD" [ false; false; false; true ] (relaxed m);
  Alcotest.check_raises "bad probability" (Invalid_argument "Model: st_ld probability out of [0,1]")
    (fun () -> ignore (Model.custom ~name:"bad" ~st_st:0.0 ~st_ld:1.5 ~ld_st:0.0 ~ld_ld:0.0))

let test_names () =
  Alcotest.(check (list string)) "standard names" [ "SC"; "TSO"; "PSO"; "WO" ]
    (List.map Model.name Model.all_standard)

let test_equal () =
  Alcotest.(check bool) "tso = tso" true (Model.equal (Model.tso ()) (Model.tso ()));
  Alcotest.(check bool) "tso <> tso(s=0.3)" false (Model.equal (Model.tso ()) (Model.tso ~s:0.3 ()));
  Alcotest.(check bool) "sc <> wo" false (Model.equal Model.sc (Model.wo ()))

let test_table1_rendering () =
  let t = Model.table1 () in
  (* the rendered table must contain each model name and the right number of
     check marks: 0 + 1 + 2 + 4 = 7 *)
  List.iter
    (fun name ->
      if not (Astring.String.is_infix ~affix:name t) then Alcotest.fail (name ^ " missing"))
    [ "ST/ST"; "ST/LD"; "LD/ST"; "LD/LD"; "SC"; "TSO"; "PSO"; "WO" ];
  let marks = String.fold_left (fun acc c -> if c = 'X' then acc + 1 else acc) 0 t in
  Alcotest.(check int) "seven relaxation marks" 7 marks

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("Table 1 matrix", test_table1_matrix);
      ("strictness order", test_strictness_order);
      ("swap probabilities", test_probabilities);
      ("custom matrices", test_custom);
      ("names", test_names);
      ("equality", test_equal);
      ("Table 1 rendering", test_table1_rendering);
    ]
