type result = { value : float; terms : int; last_term : float }

let sum_to_convergence ?(eps = 1e-16) ?(max_terms = 100_000) f =
  let sum = ref 0.0 and comp = ref 0.0 in
  let add x =
    let y = x -. !comp in
    let t = !sum +. y in
    comp := (t -. !sum) -. y;
    sum := t
  in
  let rec go k below =
    if k >= max_terms then { value = !sum; terms = k; last_term = Float.abs (f (k - 1)) }
    else begin
      let t = f k in
      add t;
      (* require a few consecutive sub-eps terms so that a single zero term
         (e.g. a parity gap in a series) does not truncate prematurely *)
      let below = if Float.abs t < eps then below + 1 else 0 in
      if below >= 4 then { value = !sum; terms = k + 1; last_term = Float.abs t }
      else go (k + 1) below
    end
  in
  go 0 0

let sum_range f lo hi =
  let sum = ref 0.0 and comp = ref 0.0 in
  for k = lo to hi do
    let y = f k -. !comp in
    let t = !sum +. y in
    comp := (t -. !sum) -. y;
    sum := t
  done;
  !sum

