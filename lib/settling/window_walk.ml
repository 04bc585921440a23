(* Settled sequences are bit masks: bit j is the kind at position j, position
   0 being the top of the program; ST = 1, LD = 0. *)

let st = 1 and ld = 0

type 'a weights = { m : int; can_pass : bool array; settle : 'a array; pair : 'a array }

(* the weight of a settling instruction of [kind] that passed [nst] STs and
   [nld] LDs and stopped at the top (0), under an LD (1) or under an ST (2) *)
let index m kind nst nld stop = ((((((kind * (m + 1)) + nst) * (m + 1)) + nld) * 3) + stop)

let weights ~one ~sub ~mul ~is_zero ~p rho m =
  let table tp =
    let w = Array.make (6 * (m + 1) * (m + 1)) one in
    for kind = 0 to 1 do
      (* pass = rho(ST, kind)^nst rho(LD, kind)^nld, one factor at a time *)
      let pass_st = ref one and stop = [| one; sub one (rho ld kind); sub one (rho st kind) |] in
      for nst = 0 to m do
        let pass = ref !pass_st in
        for nld = 0 to m - nst do
          for k = 0 to 2 do
            w.(index m kind nst nld k) <- tp kind (if k = 0 then !pass else mul !pass stop.(k))
          done;
          pass := mul !pass (rho ld kind)
        done;
        pass_st := mul !pass_st (rho st kind)
      done
    done;
    w
  in
  let q = sub one p in
  {
    m;
    can_pass = Array.init 4 (fun i -> not (is_zero (rho (i lsr 1) (i land 1))));
    settle = table (fun kind v -> mul (if kind = st then p else q) v);
    pair = table (fun _ v -> v);
  }

(* Each climb stops at position k (weight index: stop 0 at its floor, else
   1 + the kind above) and goes on past the kind above if that can swap. *)

(* a fresh instruction of [kind] at position [k] of a sequence of length
   [len]; it meets the instruction at k - 1 next *)
let rec settle_climb w emit mask kind k nst nld =
  let above = if k = 0 then 0 else (mask lsr (k - 1)) land 1 in
  let target = mask land ((1 lsl k) - 1) lor (kind lsl k) lor ((mask lsr k) lsl (k + 1)) in
  emit mask target (index w.m kind nst nld (if k = 0 then 0 else 1 + above));
  if k > 0 && w.can_pass.((above lsl 1) lor kind) then
    settle_climb w emit mask kind (k - 1) (nst + above) (nld + 1 - above)

let settle_round w len emit =
  for mask = 0 to (1 lsl len) - 1 do
    settle_climb w emit mask st len 0 0;
    settle_climb w emit mask ld len 0 0
  done

(* the critical ST at position [k'] below the critical LD, which stopped at
   position [k] with weight index [a]; reaching the LD, it stops *)
let rec st_climb w emit mask k a k' nst nld =
  if k' = k then emit mask 0 a (index w.m st nst nld 0)
  else begin
    let above = (mask lsr (k' - 1)) land 1 in
    emit mask (k' - k) a (index w.m st nst nld (1 + above));
    if w.can_pass.((above lsl 1) lor st) then
      st_climb w emit mask k a (k' - 1) (nst + above) (nld + 1 - above)
  end

let rec ld_climb w emit mask k nst nld =
  let above = if k = 0 then 0 else (mask lsr (k - 1)) land 1 in
  st_climb w emit mask k (index w.m ld nst nld (if k = 0 then 0 else 1 + above)) w.m 0 0;
  if k > 0 && w.can_pass.((above lsl 1) lor ld) then
    ld_climb w emit mask (k - 1) (nst + above) (nld + 1 - above)

let pair w emit =
  for mask = 0 to (1 lsl w.m) - 1 do
    ld_climb w emit mask w.m 0 0
  done
