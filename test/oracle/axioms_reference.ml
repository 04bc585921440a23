(* The seed's dense Full/Release fence emission: every (before, after) pair
   of same-thread events around each flushing fence. The sparse
   {!Memrel_axiom.Axioms.fence_edges} must close to exactly the same order
   on every program. *)

module Event = Memrel_axiom.Event
module Instr = Memrel_machine.Instr
module Fence = Memrel_memmodel.Fence

let fence_edges programs events =
  let acc = ref [] in
  List.iteri
    (fun thread prog ->
      Array.iteri
        (fun f ins ->
          match ins with
          | Instr.Fence (Fence.Full | Fence.Release) ->
            Array.iter
              (fun (a : Event.t) ->
                if a.Event.thread = thread && a.Event.index < f then
                  Array.iter
                    (fun (b : Event.t) ->
                      if b.Event.thread = thread && b.Event.index > f then
                        acc := (a.Event.id, b.Event.id) :: !acc)
                    events)
              events
          | _ -> ())
        prog)
    programs;
  List.rev !acc
