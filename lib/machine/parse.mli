(** A small text format for litmus tests.

    Lets users define machine programs without writing OCaml — the CLI's
    [litmus --file] and the test corpus round-trip through it. The grammar
    (one statement per line, [#] comments):

    {v
    name: sb
    description: store buffering
    init: x=0 y=0
    thread: x = 1 ; r0 = y
    thread: y = 1 ; r0 = x
    relaxed: 0:r0=0 1:r0=0
    v}

    Statements:
    - [name:], [description:] — metadata (name required);
    - [init:] — optional initial memory, space-separated [loc=int];
    - [thread:] — one per thread, instructions separated by [;]:
      {ul
      {- [LOC = INT] / [LOC = rN] — store immediate / register;}
      {- [rN = LOC] — load;}
      {- [rN = OP + OP], [-], [*] — register arithmetic, operands are
         registers or integers;}
      {- [rN = rmw LOC OP OPERAND] — atomic fetch-and-op: [rN] receives the
         old value of [LOC];}
      {- [fence.full], [fence.acquire], [fence.release].}}
    - [relaxed:] — the outcome asked about: space-separated observables,
      [T:rN=int] for registers, [LOC=int] for final memory.

    Locations are lower-case identifiers, bound to consecutive integers in
    order of first appearance (so [x] is 0 if it appears first). The
    [observe] function of the resulting test reads every observable named in
    [relaxed:]. Per-model expectations are not part of the format — parsed
    tests get [allowed_under = fun _ -> true] placeholders; reachability
    questions go through {!Litmus.run_exhaustive}. *)

exception Parse_error of { line : int; message : string }
(** Raised with a 1-based line number on malformed input. *)

val parse : string -> Litmus.t
(** [parse text] parses a complete test.
    Raises {!Parse_error}. *)

val parse_instruction : locations:(string * int) list -> string -> Instr.t
(** [parse_instruction ~locations s] parses a single instruction given a
    fixed location-name binding. Raises {!Parse_error} with line 0. Kept
    for tests of the instruction forms. *)

val parse_with_locations : string -> Litmus.t * (string * int) list
(** Like {!parse} but also returns the [(name, location)] binding assigned
    while parsing. Kept for tests of the location numbering. *)
