module Model = Memrel_memmodel.Model
module Fence = Memrel_memmodel.Fence
module Instr = Memrel_machine.Instr
module Semantics = Memrel_machine.Semantics

type com = Rf | Co | Fr

type instance = {
  iname : string;
  static_edges : (int * int) list;
  wants : com -> internal:bool -> bool;
}

let all_com _ ~internal:_ = true

(* global happens-before for the buffered machines: forwarding means an
   internal read is satisfied early, so only EXTERNAL rf constrains the
   global order; co and fr constrain it entirely *)
let ghb_com com ~internal = match com with Rf -> not internal | Co | Fr -> true

let same_thread_pairs events keep =
  let acc = ref [] in
  Array.iter
    (fun (a : Event.t) ->
      Array.iter
        (fun (b : Event.t) ->
          if a.Event.thread = b.Event.thread && a.Event.index < b.Event.index && keep a b then
            acc := (a.Event.id, b.Event.id) :: !acc)
        events)
    events;
  List.rev !acc

(* Table 1 as preserved program order: the pair (a, b) stays ordered unless
   the model relaxes every (kind a, kind b) combination. Updates are locked
   instructions — the buffered machines execute them on a drained buffer —
   so any pair involving one is preserved outright. *)
let matrix_preserved model (a : Event.t) (b : Event.t) =
  a.Event.dir = Event.U || b.Event.dir = Event.U
  || List.exists
       (fun ka ->
         List.exists
           (fun kb -> not (Model.relaxes model ~earlier:ka ~later:kb))
           (Event.kinds b))
       (Event.kinds a)

(* Full and Release fences flush the store buffer before executing, and
   execution is in order, so every access before the fence is globally
   ordered before every access after it. Acquire is a no-op on the buffered
   machines: loads already execute in order.

   The required relation per thread is R(a, b) = "some flushing fence sits
   between a and b in program order", i.e. next_fence(a) < index(b). The
   seed emitted the full before x after product per fence by scanning all
   events twice per fence instruction — O(fences * E^2) with massive
   transitive redundancy (Order closes transitively anyway). Here each
   thread's event slice is indexed once and a pair is emitted only when no
   intermediate event m grounds it (R(a, m) and R(m, b)); induction on the
   index gap shows the emitted subset closes to exactly R. *)
let is_flushing_fence = function
  | Instr.Fence (Fence.Full | Fence.Release) -> true
  | _ -> false

let fence_edges programs events =
  let acc = ref [] in
  List.iteri
    (fun thread prog ->
      if Array.exists is_flushing_fence prog then begin
        let slice =
          Array.of_seq
            (Seq.filter (fun (e : Event.t) -> e.Event.thread = thread)
               (Array.to_seq events))
        in
        let n = Array.length prog in
        (* next_fence.(i): index of the first flushing fence at or after
           instruction slot i (n when none) *)
        let next_fence = Array.make (n + 1) n in
        for i = n - 1 downto 0 do
          next_fence.(i) <- (if is_flushing_fence prog.(i) then i else next_fence.(i + 1))
        done;
        let nf (e : Event.t) = next_fence.(e.Event.index + 1) in
        (* min_nf_past.(j): the smallest next_fence over slice events with
           index > j — "is there an event after slot j that still has a
           fence after it?", the grounding-witness probe in O(1) *)
        let min_nf_past = Array.make (n + 1) n in
        for j = n - 1 downto 0 do
          min_nf_past.(j) <- min_nf_past.(j + 1);
          Array.iter
            (fun (e : Event.t) ->
              if e.Event.index = j + 1 then min_nf_past.(j) <- min (nf e) min_nf_past.(j))
            slice
        done;
        Array.iter
          (fun (a : Event.t) ->
            let fa = nf a in
            if fa < n then
              Array.iter
                (fun (b : Event.t) ->
                  if
                    b.Event.index > fa
                    && not (fa < n && min_nf_past.(fa) < b.Event.index)
                  then acc := (a.Event.id, b.Event.id) :: !acc)
                slice)
          slice
      end)
    programs;
  List.rev !acc

(* WO's per-thread issue order: an instruction may run ahead of program
   order only past non-conflicting instructions (Semantics.conflicts — the
   same predicate the operational window machine consults) and never more
   than [window - 1] slots ahead of the oldest unexecuted one. The
   reachable issue orders are exactly the linear extensions of the
   transitive closure of those edges; restricting the closure to memory
   events gives the static happens-before base. *)
let wo_edges ~window programs events =
  let acc = ref [] in
  List.iteri
    (fun thread prog ->
      let n = Array.length prog in
      let ord = Array.make_matrix n n false in
      for i = 0 to n - 1 do
        for j = 0 to i - 1 do
          if i - j >= window || Semantics.conflicts prog j i then ord.(j).(i) <- true
        done
      done;
      for k = 0 to n - 1 do
        for j = 0 to n - 1 do
          if ord.(j).(k) then
            for i = 0 to n - 1 do
              if ord.(k).(i) then ord.(j).(i) <- true
            done
        done
      done;
      Array.iter
        (fun (a : Event.t) ->
          if a.Event.thread = thread then
            Array.iter
              (fun (b : Event.t) ->
                if b.Event.thread = thread && ord.(a.Event.index).(b.Event.index) then
                  acc := (a.Event.id, b.Event.id) :: !acc)
              events)
        events)
    programs;
  List.rev !acc

let instances discipline programs events =
  match discipline with
  | Semantics.Sc ->
    [ { iname = "hb"; static_edges = same_thread_pairs events (fun _ _ -> true);
        wants = all_com } ]
  | Semantics.Tso | Semantics.Pso ->
    let model =
      match discipline with Semantics.Tso -> Model.tso () | _ -> Model.pso ()
    in
    let ppo = same_thread_pairs events (matrix_preserved model) in
    [ { iname = "ghb"; static_edges = ppo @ fence_edges programs events; wants = ghb_com };
      { iname = "sc-per-loc"; static_edges = same_thread_pairs events Event.same_loc;
        wants = all_com } ]
  | Semantics.Wo { window } ->
    [ { iname = "hb"; static_edges = wo_edges ~window programs events; wants = all_com } ]
