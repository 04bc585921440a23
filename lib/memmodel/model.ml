type family =
  | Sequential_consistency
  | Total_store_order
  | Partial_store_order
  | Weak_ordering
  | Custom

type t = {
  family : family;
  name : string;
  s : float;
  (* matrix entries: rho(earlier, later) *)
  st_st : float;
  st_ld : float;
  ld_st : float;
  ld_ld : float;
}

let check_prob what p =
  if not (p >= 0.0 && p <= 1.0) then invalid_arg (Printf.sprintf "Model: %s probability out of [0,1]" what)

let default_s = 0.5

let sc =
  { family = Sequential_consistency; name = "SC"; s = default_s;
    st_st = 0.0; st_ld = 0.0; ld_st = 0.0; ld_ld = 0.0 }

let tso ?(s = default_s) () =
  check_prob "s" s;
  { family = Total_store_order; name = "TSO"; s; st_st = 0.0; st_ld = s; ld_st = 0.0; ld_ld = 0.0 }

let pso ?(s = default_s) () =
  check_prob "s" s;
  { family = Partial_store_order; name = "PSO"; s; st_st = s; st_ld = s; ld_st = 0.0; ld_ld = 0.0 }

let wo ?(s = default_s) () =
  check_prob "s" s;
  { family = Weak_ordering; name = "WO"; s; st_st = s; st_ld = s; ld_st = s; ld_ld = s }

let custom ~name ~st_st ~st_ld ~ld_st ~ld_ld =
  check_prob "st_st" st_st;
  check_prob "st_ld" st_ld;
  check_prob "ld_st" ld_st;
  check_prob "ld_ld" ld_ld;
  let s = List.fold_left Float.max 0.0 [ st_st; st_ld; ld_st; ld_ld ] in
  let s = if s = 0.0 then default_s else s in
  { family = Custom; name; s; st_st; st_ld; ld_st; ld_ld }

let all_standard = [ sc; tso (); pso (); wo () ]

let family t = t.family
let name t = t.name
let s t = t.s

let family_name = function
  | Sequential_consistency -> "SC"
  | Total_store_order -> "TSO"
  | Partial_store_order -> "PSO"
  | Weak_ordering -> "WO"
  | Custom -> "custom"

let swap_probability t ~earlier ~later =
  match (earlier, later) with
  | Op.ST, Op.ST -> t.st_st
  | Op.ST, Op.LD -> t.st_ld
  | Op.LD, Op.ST -> t.ld_st
  | Op.LD, Op.LD -> t.ld_ld

let relaxes t ~earlier ~later = swap_probability t ~earlier ~later > 0.0

let equal a b =
  a.family = b.family && String.equal a.name b.name && a.st_st = b.st_st && a.st_ld = b.st_ld
  && a.ld_st = b.ld_st && a.ld_ld = b.ld_ld

let pp fmt t = Format.pp_print_string fmt t.name

let table1 () =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "ST/ST  ST/LD  LD/ST  LD/LD  Name\n";
  List.iter
    (fun m ->
      let mark earlier later = if relaxes m ~earlier ~later then "  X  " else "     " in
      Buffer.add_string buf
        (Printf.sprintf "%s  %s  %s  %s  %s\n" (mark Op.ST Op.ST) (mark Op.ST Op.LD)
           (mark Op.LD Op.ST) (mark Op.LD Op.LD) m.name))
    all_standard;
  Buffer.contents buf
