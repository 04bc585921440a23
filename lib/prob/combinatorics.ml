module B = Bigint

(* Both memo tables below are global and reachable from Par domains (the
   exact-series estimators call into phi from worker code), so every table
   access goes through [cache_lock]. The lock is held only around the
   Hashtbl probe/insert — never across the recursive compute — so the
   recursion in [bounded_at_most] cannot deadlock on it; the cost is that
   two domains racing on the same key may both compute it, which is benign
   (the values are equal and [Hashtbl.replace] keeps one binding). *)
let cache_lock = Mutex.create ()

type cache_stats = {
  binomial_hits : int;
  binomial_misses : int;
  binomial_entries : int;
  partition_hits : int;
  partition_misses : int;
  partition_entries : int;
}

let c_bin_hits = ref 0
let c_bin_misses = ref 0
let c_part_hits = ref 0
let c_part_misses = ref 0

(* n is capped so the memo stays a bounded triangle (~cap^2/2 entries at
   worst) no matter how long the process runs; larger n falls through to
   the direct multiplicative formula. *)
let binomial_memo_cap = 512

let binomial_cache : (int * int, B.t) Hashtbl.t = Hashtbl.create 1024
let partition_cache : (int * int * int, B.t) Hashtbl.t = Hashtbl.create 4096

let cache_stats () =
  Mutex.protect cache_lock (fun () ->
      {
        binomial_hits = !c_bin_hits;
        binomial_misses = !c_bin_misses;
        binomial_entries = Hashtbl.length binomial_cache;
        partition_hits = !c_part_hits;
        partition_misses = !c_part_misses;
        partition_entries = Hashtbl.length partition_cache;
      })

let clear_caches () =
  Mutex.protect cache_lock (fun () ->
      Hashtbl.reset binomial_cache;
      Hashtbl.reset partition_cache;
      c_bin_hits := 0;
      c_bin_misses := 0;
      c_part_hits := 0;
      c_part_misses := 0)

let binomial_direct n k =
  (* multiplicative formula; each intermediate division is exact *)
  let acc = ref B.one in
  for i = 1 to k do
    acc := B.div (B.mul_int !acc (n - k + i)) (B.of_int i)
  done;
  !acc

let binomial n k =
  if n < 0 then invalid_arg "Combinatorics.binomial: n < 0";
  if k < 0 || k > n then B.zero
  else begin
    let k = if k > n - k then n - k else k in
    if k = 0 then B.one
    else if n > binomial_memo_cap then binomial_direct n k
    else begin
      let key = (n, k) in
      Mutex.lock cache_lock;
      let cached = Hashtbl.find_opt binomial_cache key in
      (match cached with Some _ -> incr c_bin_hits | None -> incr c_bin_misses);
      Mutex.unlock cache_lock;
      match cached with
      | Some v -> v
      | None ->
        let v = binomial_direct n k in
        Mutex.lock cache_lock;
        Hashtbl.replace binomial_cache key v;
        Mutex.unlock cache_lock;
        v
    end
  end

let binomial_float n k = B.to_float (binomial n k)

let factorial n =
  if n < 0 then invalid_arg "Combinatorics.factorial: n < 0";
  let acc = ref B.one in
  for i = 2 to n do acc := B.mul_int !acc i done;
  !acc

let log2_factorial n =
  let acc = ref 0.0 in
  for i = 2 to n do acc := !acc +. (Float.log (float_of_int i) /. Float.log 2.0) done;
  !acc

(* phi(x,y,z) = partitions of x into exactly y positive parts each <= z.
   Subtracting 1 from every part reduces to f(x-y, y, z-1) where f(n,k,m) is
   the count of partitions of n into at most k parts each <= m, with the
   classic recurrence f(n,k,m) = f(n,k,m-1) + f(n-m,k-1,m). *)
let rec bounded_at_most n k m =
  if n = 0 then B.one
  else if n < 0 || k = 0 || m = 0 then B.zero
  else begin
    let key = (n, k, m) in
    Mutex.lock cache_lock;
    let cached = Hashtbl.find_opt partition_cache key in
    (match cached with Some _ -> incr c_part_hits | None -> incr c_part_misses);
    Mutex.unlock cache_lock;
    match cached with
    | Some v -> v
    | None ->
      let v = B.add (bounded_at_most n k (m - 1)) (bounded_at_most (n - m) (k - 1) m) in
      Mutex.lock cache_lock;
      Hashtbl.replace partition_cache key v;
      Mutex.unlock cache_lock;
      v
  end

let partitions_bounded x y z =
  if y < 0 || z < 0 then invalid_arg "Combinatorics.partitions_bounded: negative parameter";
  if y = 0 then (if x = 0 then B.one else B.zero)
  else if x < y || x > y * z then B.zero
  else bounded_at_most (x - y) y (z - 1)

let check_perm_size n =
  if n < 0 || n > 9 then invalid_arg "Combinatorics: permutation degree must be in [0, 9]"

(* Heap's algorithm, iterative folding. *)
let fold_permutations f init n =
  check_perm_size n;
  let a = Array.init n (fun i -> i) in
  let c = Array.make n 0 in
  let acc = ref (f init a) in
  let i = ref 0 in
  while !i < n do
    if c.(!i) < !i then begin
      let j = if !i land 1 = 0 then 0 else c.(!i) in
      let tmp = a.(j) in
      a.(j) <- a.(!i);
      a.(!i) <- tmp;
      acc := f !acc a;
      c.(!i) <- c.(!i) + 1;
      i := 0
    end
    else begin
      c.(!i) <- 0;
      incr i
    end
  done;
  !acc

let permutations n =
  List.rev (fold_permutations (fun acc a -> Array.copy a :: acc) [] n)
