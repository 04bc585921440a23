let () =
  Alcotest.run "memrel_machine"
    [
      ("instr", Test_instr.suite);
      ("state", Test_state.suite);
      ("semantics", Test_semantics.suite);
      ("enumerate", Test_enumerate.suite);
      ("arena_set", Test_arena_set.suite);
      ("extmem", Test_extmem.suite);
      ("litmus", Test_litmus.suite);
      ("parse", Test_parse.suite);
      ("litmus_files", Test_litmus_files.suite);
      ("differential", Test_differential.suite);
      ("exec", Test_exec.suite);
      ("sleep sets", Test_sleep_sets.suite);
      ("codes", Test_codes.suite);
    ]
