module Q = Memrel_prob.Rational
module Model = Memrel_memmodel.Model

let max_replicas = 4

module type S = sig
  type q

  val expect_product : ?p:q -> ?b_max:int -> s:q -> Model.family -> m:int -> n:int -> q
  val bottom_run_pmf : ?p:q -> ?b_max:int -> s:q -> Model.family -> m:int -> q array
end

module Make (Q : Memrel_prob.Sigs.SCALAR) = struct
  type q = Q.t

  let in_open_unit v = Q.compare v Q.zero > 0 && Q.compare v Q.one < 0

  let check_common ~p ~s ~m =
    if not (in_open_unit p) then invalid_arg "Joint_dp_q: p must be in (0,1)";
    if not (in_open_unit s) then invalid_arg "Joint_dp_q: s must be in (0,1)";
    if m < 1 then invalid_arg "Joint_dp_q: m >= 1 required"

  (* The coupled bottom-run chains: the joint law of (B_1 .. B_k), a tensor
     with one coordinate per replica in [0 .. b_max], stored flat at index
     sum_j b_j * (b_max+1)^j, all replicas driven by the same program draw.
     Coordinates clamp at b_max. *)
  let run_chains ~p ~s ~b_max ~m k =
    let side = b_max + 1 in
    let stride = Array.make (k + 1) 1 in
    for j = 1 to k do stride.(j) <- stride.(j - 1) * side done;
    let size = stride.(k) in
    let spow = Array.init side (fun b -> Q.pow s b) in
    let one_minus_s = Q.sub Q.one s in
    let one_minus_p = Q.sub Q.one p in
    let dist = Array.make size Q.zero in
    dist.(0) <- Q.one;
    let tmp = Array.make size Q.zero in
    (* fresh ST: every replica's run grows by one (clamped): a diagonal
       shift into a cleared destination tensor *)
    let shift_all src dst =
      Array.fill dst 0 size Q.zero;
      for idx = 0 to size - 1 do
        let v = src.(idx) in
        if not (Q.is_zero v) then begin
          let rem = ref idx and nidx = ref 0 in
          for j = 0 to k - 1 do
            let b = !rem mod side in
            rem := !rem / side;
            nidx := !nidx + (stride.(j) * if b >= b_max then b_max else b + 1)
          done;
          dst.(!nidx) <- Q.add dst.(!nidx) v
        end
      done
    in
    (* fresh LD on one axis: new[b'] = s^b' ((1-s) * sum_{b > b'} old[b] + old[b']) *)
    let ld_axis arr j =
      let st = stride.(j) in
      let block = st * side in
      let i = ref 0 in
      while !i < size do
        for off = !i to !i + st - 1 do
          let suffix = ref Q.zero in
          for b = side - 1 downto 0 do
            let cell = off + (b * st) in
            let v = arr.(cell) and above = !suffix in
            suffix := Q.add above v;
            arr.(cell) <- Q.mul spow.(b) (Q.add (Q.mul one_minus_s above) v)
          done
        done;
        i := !i + block
      done
    in
    for _ = 1 to m do
      (* the ST branch into tmp (weight p), the LD branch in place (1 - p) *)
      shift_all dist tmp;
      for j = 0 to k - 1 do
        ld_axis dist j
      done;
      for idx = 0 to size - 1 do
        dist.(idx) <- Q.add (Q.mul one_minus_p dist.(idx)) (Q.mul p tmp.(idx))
      done
    done;
    dist

  (* window-transform weight given a bottom run of mu STs, for exponent i:
     the critical LD passes g of them, then the critical ST passes t of those
     g back, each swap succeeding w.p. s_ld and s_st; a climb of at most n
     steps passes c of them w.p. r^c (1-r) for c < n and r^n for c = n *)
  let weight ~s_ld ~s_st ~i mu =
    let climb r c n = if c < n then Q.mul (Q.pow r c) (Q.sub Q.one r) else Q.pow r n in
    let acc = ref Q.zero in
    for g = 0 to mu do
      for t = 0 to if Q.is_zero s_st then 0 else g do
        let pr = Q.mul (climb s_ld g mu) (climb s_st t g) in
        acc := Q.add !acc (Q.mul pr (Q.pow2 (-i * (g - t + 2))))
      done
    done;
    !acc

  let default_b_max b_max m = match b_max with Some b -> b | None -> Stdlib.min m 40

  let expect_product ?(p = Q.half) ?b_max ~s family ~m ~n =
    check_common ~p ~s ~m;
    if n < 2 || n - 1 > max_replicas then
      invalid_arg "Joint_dp_q.expect_product: n must be in [2, max_replicas + 1]";
    let k = n - 1 in
    match family with
    | Model.Sequential_consistency ->
      (* Gamma = 2 for every thread *)
      Q.pow2 (-2 * (k * (k + 1) / 2))
    | Model.Total_store_order | Model.Partial_store_order ->
      let b_max = default_b_max b_max m in
      if b_max < 1 then invalid_arg "Joint_dp_q: b_max >= 1 required";
      (* TSO keeps ST/ST pairs in order; PSO relaxes them *)
      let s_st = match family with Model.Partial_store_order -> s | _ -> Q.zero in
      let side = b_max + 1 in
      let dist = run_chains ~p ~s ~b_max ~m k in
      let w = Array.init k (fun j -> Array.init side (weight ~s_ld:s ~s_st ~i:(j + 1))) in
      let total = ref Q.zero in
      Array.iteri
        (fun idx v ->
          if not (Q.is_zero v) then begin
            let rem = ref idx and prod = ref v in
            for j = 0 to k - 1 do
              prod := Q.mul !prod w.(j).(!rem mod side);
              rem := !rem / side
            done;
            total := Q.add !total !prod
          end)
        dist;
      !total
    | Model.Weak_ordering | Model.Custom ->
      (* WO needs an infinite series (the float Joint_dp sums it); Custom
         has no bottom-run reduction at all *)
      invalid_arg "Joint_dp_q: only SC/TSO/PSO families are supported"

  let bottom_run_pmf ?(p = Q.half) ?b_max ~s family ~m =
    check_common ~p ~s ~m;
    (match family with
     | Model.Total_store_order | Model.Partial_store_order -> ()
     | _ -> invalid_arg "Joint_dp_q.bottom_run_pmf: TSO/PSO dynamics only");
    let b_max = default_b_max b_max m in
    run_chains ~p ~s ~b_max ~m 1
end

include Make (Memrel_prob.Rational)
