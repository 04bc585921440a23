(* One JSON object per probe invocation, printed as the last stdout line
   for perfbench/run.py: named numbers, flags and notes. *)

type value = Num of float | Int of int | Str of string

let fields : (string * value) list ref = ref []

let num k v = fields := (k, Num v) :: !fields
let int k v = fields := (k, Int v) :: !fields
let str k v = fields := (k, Str v) :: !fields

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let render = function
  | Num v when Float.is_finite v -> Printf.sprintf "%.17g" v
  | Num _ -> "null"
  | Int i -> string_of_int i
  | Str s -> json_string s

let print () =
  let body =
    List.rev_map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) (render v)) !fields
  in
  print_string ("{" ^ String.concat ", " body ^ "}\n");
  flush stdout

(* Failures are collected, not raised: run.py counts them. *)
let failures = ref []
let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt

let print_with_failures () =
  str "failures" (String.concat "; " (List.rev !failures));
  int "failed_checks" (List.length !failures);
  print ()

let median = function
  | [||] -> 0.0
  | a ->
    let a = Array.copy a in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* This process's own peak resident memory (VmHWM). A parent's rusage for
   a child also counts the parent's memory at fork, so a probe reports its
   peak itself. *)
let vm_hwm_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | None -> failwith "no VmHWM in /proc/self/status"
        | Some l when String.starts_with ~prefix:"VmHWM:" l ->
          Scanf.sscanf l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.0)
        | Some _ -> find ()
      in
      find ())

let gc_fields (before : Gc.stat) (after : Gc.stat) =
  num "gc.minor_mwords" ((after.Gc.minor_words -. before.Gc.minor_words) /. 1e6);
  int "gc.major_collections" (after.Gc.major_collections - before.Gc.major_collections)
