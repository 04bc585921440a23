(* The host's current speed, from fixed kernels that belong to the
   benchmark, not to memrel. On a shared 2-vCPU VM the same binary runs up
   to 70 % slower for seconds to minutes at a time; run.py times a kernel
   between passes and scales each pass by it. Different work slows by
   different amounts, so each workload is scaled by the kernel whose
   slowdowns track its own (quartile distance over median of per-pass
   times, raw / scaled by each kernel, over 150-180 s of interleaved runs):

   - table: short formatted string keys into a growing Hashtbl, each new
     key with a small list; allocation, hashing, GC and cache misses, the
     shape of an enumerator's dedup. enum-spill 23 % raw, 7 % scaled by
     it, 20 % by compute; estimate-sweep 10 %, 6 %, 7 %.
   - compute: an xorshift stream through a 256-entry table, in registers
     and L1. serve-mixed's query round trip, socket and scheduler work:
     12-23 % raw, 10-12 % scaled by it, 17-19 % by table. *)

let table () =
  let h = Hashtbl.create 1024 in
  let x = ref 88172645463325252 and hits = ref 0 in
  for _ = 1 to 100_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let k =
      Printf.sprintf "%016x:%08x:%04x" (v land 0x3ffff) ((v lsr 20) land 0xffff) ((v lsr 40) land 0xff)
    in
    if Hashtbl.mem h k then incr hits else Hashtbl.replace h k [ v; v + 1 ]
  done;
  !hits + Hashtbl.length h

let compute () =
  let tbl = Array.init 256 (fun i -> (i * 2654435761) land 0xffff) in
  let x = ref 88172645463325252 and acc = ref 0 in
  for _ = 1 to 10_000_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    let v = v lxor (v lsl 17) in
    x := v;
    let t = tbl.(v land 255) in
    if t land 1 = 0 then acc := !acc + t else acc := !acc lxor (t lsl 3)
  done;
  !acc

let run ~kernel =
  let k = match kernel with "table" -> table | "compute" -> compute | k -> failwith ("kernel " ^ k) in
  let t0 = Tracer.now_ns () in
  ignore (Sys.opaque_identity (k ()));
  Report.num "kernel_s" (float_of_int (Tracer.now_ns () - t0) /. 1e9);
  Report.print ()
