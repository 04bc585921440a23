type t = {
  mutable slots : int array;
  mutable olds : int array;
  mutable len : int;
  mutable marks : int array;
  mutable mlen : int;
}

let create ?(capacity = 64) () =
  let capacity = max capacity 1 in
  {
    slots = Array.make capacity 0;
    olds = Array.make capacity 0;
    len = 0;
    marks = Array.make 16 0;
    mlen = 0;
  }

let grow t =
  let cap = 2 * Array.length t.slots in
  let slots = Array.make cap 0 and olds = Array.make cap 0 in
  Array.blit t.slots 0 slots 0 t.len;
  Array.blit t.olds 0 olds 0 t.len;
  t.slots <- slots;
  t.olds <- olds

let save t slot old =
  if t.len = Array.length t.slots then grow t;
  t.slots.(t.len) <- slot;
  t.olds.(t.len) <- old;
  t.len <- t.len + 1

let mark t =
  if t.mlen = Array.length t.marks then begin
    let marks = Array.make (2 * t.mlen) 0 in
    Array.blit t.marks 0 marks 0 t.mlen;
    t.marks <- marks
  end;
  t.marks.(t.mlen) <- t.len;
  t.mlen <- t.mlen + 1

let undo t ~restore =
  if t.mlen = 0 then invalid_arg "Trail.undo: no mark";
  t.mlen <- t.mlen - 1;
  let stop = t.marks.(t.mlen) in
  (* newest-first: a slot saved twice inside one mark is restored to its
     oldest value last, so the net effect is exact *)
  for i = t.len - 1 downto stop do
    restore t.slots.(i) t.olds.(i)
  done;
  t.len <- stop
