module Op = Memrel_memmodel.Op
module Fence = Memrel_memmodel.Fence

let test_kinds () =
  Alcotest.(check string) "names" "LD" (Op.to_string (Op.plain Op.LD));
  Alcotest.(check string) "names" "ST" (Op.to_string (Op.plain Op.ST))

let test_roles () =
  Alcotest.(check bool) "critical load is critical" true (Op.is_critical Op.critical_load);
  Alcotest.(check bool) "critical store is critical" true (Op.is_critical Op.critical_store);
  Alcotest.(check bool) "plain not critical" false (Op.is_critical (Op.plain Op.LD));
  Alcotest.(check bool) "load vs store roles" true
    (Op.is_critical_load Op.critical_load && not (Op.is_critical_load Op.critical_store));
  Alcotest.(check bool) "store role" true (Op.is_critical_store Op.critical_store)

let test_kind_of () =
  Alcotest.(check bool) "critical load is a LD" true (Op.kind_of Op.critical_load = Some Op.LD);
  Alcotest.(check bool) "critical store is a ST" true (Op.kind_of Op.critical_store = Some Op.ST);
  Alcotest.(check bool) "fence has no kind" true (Op.kind_of (Op.fence Fence.Full) = None)

let test_same_location () =
  Alcotest.(check bool) "critical pair shares x" true
    (Op.same_location Op.critical_load Op.critical_store);
  Alcotest.(check bool) "symmetric" true (Op.same_location Op.critical_store Op.critical_load);
  Alcotest.(check bool) "plain ops are distinct" false
    (Op.same_location (Op.plain Op.ST) (Op.plain Op.ST));
  Alcotest.(check bool) "critical vs plain distinct" false
    (Op.same_location Op.critical_load (Op.plain Op.ST));
  Alcotest.(check bool) "not reflexive for criticals" false
    (Op.same_location Op.critical_load Op.critical_load)

let test_rendering () =
  Alcotest.(check string) "chars" "LSlsARF"
    (String.init 7 (fun i ->
         Op.to_char
           (List.nth
              [ Op.plain Op.LD; Op.plain Op.ST; Op.critical_load; Op.critical_store;
                Op.fence Fence.Acquire; Op.fence Fence.Release; Op.fence Fence.Full ]
              i)));
  Alcotest.(check string) "to_string critical" "LD*" (Op.to_string Op.critical_load);
  Alcotest.(check string) "to_string fence" "FENCE.release" (Op.to_string (Op.fence Fence.Release))

let test_fence_semantics () =
  Alcotest.(check bool) "acquire blocks" true (Fence.blocks_upward_pass Fence.Acquire);
  Alcotest.(check bool) "full blocks" true (Fence.blocks_upward_pass Fence.Full);
  Alcotest.(check bool) "release passes" false (Fence.blocks_upward_pass Fence.Release);
  Alcotest.(check bool) "fence equal" true (Fence.equal Fence.Full Fence.Full);
  Alcotest.(check bool) "fence distinct" false (Fence.equal Fence.Acquire Fence.Release)

let suite =
  List.map
    (fun (n, f) -> Alcotest.test_case n `Quick f)
    [
      ("kinds", test_kinds);
      ("roles", test_roles);
      ("kind_of", test_kind_of);
      ("same_location", test_same_location);
      ("rendering", test_rendering);
      ("fence semantics", test_fence_semantics);
    ]
