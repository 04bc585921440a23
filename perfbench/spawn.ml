(* Run one command and report its wall, CPU and peak resident memory. A
   child's ru_maxrss also counts its parent's memory at fork (exec keeps
   the old address space's high-water mark), and run.py is larger than an
   inc5 enumeration, so run.py starts `memrel enumerate` through this small
   process: its own peak, reported as floor_mb, is the lowest reading. *)

external spawn : string array -> string -> int = "perfbench_spawn"
external wait4 : int -> int * float * float * int = "perfbench_wait4"

let run ~out argv =
  let t0 = Tracer.now_ns () in
  let pid = spawn argv out in
  let code, user, sys, maxrss_kb = wait4 pid in
  let wall = float_of_int (Tracer.now_ns () - t0) /. 1e9 in
  Report.int "exit" code;
  Report.num "wall_s" wall;
  Report.num "cpu_s" (user +. sys);
  Report.num "peak_rss_mb" (float_of_int maxrss_kb /. 1024.0);
  Report.num "floor_mb" (Report.vm_hwm_mb ());
  Report.print ()
