module Q = Memrel_prob.Rational
module Op = Memrel_memmodel.Op
module Model = Memrel_memmodel.Model

module type S = sig
  type q

  type matrix = { st_st : q; st_ld : q; ld_st : q; ld_ld : q }

  val sc : matrix
  val tso : ?s:q -> unit -> matrix
  val pso : ?s:q -> unit -> matrix
  val wo : ?s:q -> unit -> matrix
  val of_model : Model.t -> matrix
  val max_m : int
  val gamma_pmf : ?p:q -> matrix -> m:int -> (int * q) list
  val bottom_st_probability : ?p:q -> matrix -> m:int -> q
end

module Make (Q : Memrel_prob.Sigs.RATIONAL) = struct
  type q = Q.t

  type matrix = { st_st : q; st_ld : q; ld_st : q; ld_ld : q }

  let check_entry name v =
    if Q.compare v Q.zero < 0 || Q.compare v Q.one > 0 then
      invalid_arg (Printf.sprintf "Exact_dp_q: %s out of [0,1]" name)

  let make ~st_st ~st_ld ~ld_st ~ld_ld =
    List.iter2 check_entry [ "st_st"; "st_ld"; "ld_st"; "ld_ld" ] [ st_st; st_ld; ld_st; ld_ld ];
    { st_st; st_ld; ld_st; ld_ld }

  let sc = { st_st = Q.zero; st_ld = Q.zero; ld_st = Q.zero; ld_ld = Q.zero }
  let tso ?(s = Q.half) () = make ~st_st:Q.zero ~st_ld:s ~ld_st:Q.zero ~ld_ld:Q.zero
  let pso ?(s = Q.half) () = make ~st_st:s ~st_ld:s ~ld_st:Q.zero ~ld_ld:Q.zero
  let wo ?(s = Q.half) () = make ~st_st:s ~st_ld:s ~ld_st:s ~ld_ld:s

  let of_model model =
    let q earlier later = Q.of_float_dyadic (Model.swap_probability model ~earlier ~later) in
    make ~st_st:(q Op.ST Op.ST) ~st_ld:(q Op.ST Op.LD) ~ld_st:(q Op.LD Op.ST)
      ~ld_ld:(q Op.LD Op.LD)

  (* kinds as bits: ST = 1, LD = 0 *)
  let rho matrix earlier later =
    if earlier = 1 then if later = 1 then matrix.st_st else matrix.st_ld
    else if later = 1 then matrix.ld_st
    else matrix.ld_ld

  let max_m = 12

  let check ?(p = Q.half) m =
    check_entry "p" p;
    if m < 0 || m > max_m then invalid_arg "Exact_dp_q: m out of [0, max_m]"

  let weights ~p matrix m =
    Window_walk.weights ~one:Q.one ~sub:Q.sub ~mul:Q.mul ~is_zero:Q.is_zero ~p (rho matrix) m

  let prefix_distribution (w : q Window_walk.weights) =
    let dist = ref [| Q.one |] in
    for len = 0 to w.m - 1 do
      let cur = !dist and next = Array.make (2 lsl len) Q.zero in
      Window_walk.settle_round w len (fun src dst i ->
          next.(dst) <- Q.add next.(dst) (Q.mul cur.(src) w.settle.(i)));
      dist := next
    done;
    !dist

  let gamma_pmf ?(p = Q.half) matrix ~m =
    check ~p m;
    let w = weights ~p matrix m in
    let prefix = prefix_distribution w in
    let out = Array.make (m + 1) Q.zero in
    Window_walk.pair w (fun mask g a b ->
        out.(g) <- Q.add out.(g) (Q.mul prefix.(mask) (Q.mul w.pair.(a) w.pair.(b))));
    List.init (m + 1) (fun g -> (g, out.(g)))

  let bottom_st_probability ?(p = Q.half) matrix ~m =
    check ~p m;
    if m = 0 then invalid_arg "Exact_dp_q.bottom_st_probability: m >= 1 required";
    let prefix = prefix_distribution (weights ~p matrix m) in
    let acc = ref Q.zero in
    Array.iteri
      (fun mask mass -> if (mask lsr (m - 1)) land 1 = 1 then acc := Q.add !acc mass)
      prefix;
    !acc
end

include Make (Memrel_prob.Rational)
