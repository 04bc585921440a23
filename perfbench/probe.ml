(* The benchmark's OCaml side, driven by perfbench/run.py. Each subcommand
   prints one JSON object as its last stdout line.

     probe env
     probe calibrate --kernel (table | compute)
     probe serve-prepare --seed N --queries N [--tiny] --prep FILE
     probe serve-seed --prep FILE --cache DIR
     probe serve-load --prep FILE --socket PATH --conns N --lat FILE
     probe serve-trace --prep FILE --socket PATH --work DIR --spans FILE --pings N
     probe enum-trace --test NAME --models M,M [--spill --mem-budget MB] --work DIR --spans FILE
     probe estimate --seed N --width W
     probe estimate-trace --seed N --width W --spans FILE
     probe spawn --out FILE -- PROGRAM ARGS... *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let rec opt k = function
    | k' :: v :: _ when k' = k -> Some v
    | _ :: rest -> opt k rest
    | [] -> None
  in
  let get k = match opt k args with Some v -> v | None -> failwith ("missing " ^ k) in
  let int k = int_of_string (get k) and float k = float_of_string (get k) in
  let flag k = List.mem k args in
  match args with
  | "env" :: _ ->
    Report.str "ocaml_version" Sys.ocaml_version;
    Report.int "recommended_domain_count" (Domain.recommended_domain_count ());
    Report.print ()
  | "serve-prepare" :: _ ->
    Serve_bench.prepare ~seed:(int "--seed") ~tiny:(flag "--tiny") ~queries:(int "--queries")
      ~file:(get "--prep")
  | "serve-seed" :: _ ->
    Serve_bench.seed_cache (Serve_bench.load (get "--prep")) ~dir:(get "--cache");
    Report.print ()
  | "serve-load" :: _ ->
    Serve_bench.load_generator (Serve_bench.load (get "--prep")) ~socket:(get "--socket")
      ~conns:(int "--conns") ~lat_file:(get "--lat")
  | "serve-trace" :: _ ->
    Serve_bench.trace (Serve_bench.load (get "--prep")) ~work:(get "--work")
      ~socket:(get "--socket") ~spans:(get "--spans") ~pings:(int "--pings")
  | "enum-trace" :: _ ->
    Enum_bench.trace ~test:(get "--test")
      ~models:(String.split_on_char ',' (get "--models"))
      ~spill:(flag "--spill")
      ~mem_budget_mb:(if flag "--spill" then int "--mem-budget" else 0)
      ~dir:(get "--work") ~spans:(get "--spans")
  | "calibrate" :: _ -> Calib.run ~kernel:(get "--kernel")
  | "estimate" :: _ -> Estimate_bench.run ~seed:(int "--seed") ~width:(float "--width")
  | "estimate-trace" :: _ ->
    Estimate_bench.trace ~seed:(int "--seed") ~width:(float "--width") ~spans:(get "--spans")
  | "spawn" :: _ -> (
    match List.find_index (String.equal "--") args with
    | Some i -> Spawn.run ~out:(get "--out") (Array.of_list (List.filteri (fun j _ -> j > i) args))
    | None -> failwith "spawn: missing -- PROGRAM")
  | _ ->
    prerr_endline "usage: probe (env | calibrate | serve-* | enum-trace | estimate | estimate-trace | spawn) ...";
    exit 2
