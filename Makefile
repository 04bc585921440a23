# Tier-1 verification is `make ci`: build + tests (the engine parity
# checks the bench timings rely on live there) + one smoke pass of each
# JSON bench mode (enum, axiom, exact; written under /tmp, so the committed
# BENCH_*.json rows come only from full runs), the axiomatic-vs-operational
# CLI differential, the service smoke (daemon cold/warm/restart cache
# behavior plus its error and partial exit codes), the chaos smoke (seeded
# fault plans vs a clean oracle, kill -9 recovery, overload shedding,
# live-socket refusal, SIGTERM drain), the external-memory enumeration
# contract (tiny-budget totals, CLI kill/resume), and the CLI's exit-3
# partial-result, checkpoint-identity and usage-error (124) contracts.

.PHONY: all build check test bench bench-enum bench-axiom bench-exact ci clean

all: build

# fast type-and-rules pass, no linking or tests
check:
	dune build @check

build:
	dune build

test:
	dune runtest

# the full paper harness (E1..E16 + Bechamel timings)
bench:
	dune exec bench/main.exe

# Each bench-* target is a full run of one JSON bench mode
# (`bench/main.exe --json MODE FILE [--smoke]`); every mode writes rows of
# one schema (workload, layer, seconds, units/s, counters) plus an env block.

# enumeration: in-RAM, POR and extmem on inc4-inc6 under all four models,
# extmem at 64 KiB and 1 MiB budgets, and the inc7/TSO RAM wall (about
# 5 minutes); writes BENCH_enum.json
bench-enum:
	dune exec bench/main.exe -- --json enum BENCH_enum.json

# candidate generation: the co/rf solver vs generate-and-prune on the corpus
# and inc3-inc5 under all four models, inc6 SC, and the inc7 SC frontier
# where only the solver concludes; writes BENCH_axiom.json
bench-axiom:
	dune exec bench/main.exe -- --json axiom BENCH_axiom.json

# exact arithmetic: the fixnum fast path vs the seed limb-array reference on
# the exact DP workloads and raw add/mul/gcd; writes BENCH_exact.json
bench-exact:
	dune exec bench/main.exe -- --json exact BENCH_exact.json

ci:
	dune build
	dune runtest
	dune exec bin/memrel_cli.exe -- axiom sb mp lb inc3 inc4
	# one smoke pass over the JSON bench modes keeps them from rotting
	for m in enum axiom exact; do dune exec bench/main.exe -- --json $$m /tmp/BENCH_$${m}_smoke.json --smoke || exit 1; done
	# daemon end-to-end: cold batch, warm replay, restart -> disk hits,
	# bad-request (123) and budget-partial (3) exit codes, clean shutdown
	sh scripts/serve_smoke.sh
	# chaos drill (short form): seeded fault plans answered byte-identical
	# to a clean oracle, a kill -9/restart cycle over the same cache+spill
	# dirs, overload shedding with retrying clients, live-socket refusal,
	# SIGTERM drain. `scripts/chaos_smoke.sh --full` is the acceptance run.
	sh scripts/chaos_smoke.sh
	# partial-result contract: an expired deadline must exit 3, not 0/crash
	dune exec bin/memrel_cli.exe -- window --trials 100000 --deadline 0 > /dev/null; test $$? -eq 3
	dune exec bin/memrel_cli.exe -- enumerate inc3 --max-states 50 > /dev/null; test $$? -eq 3
	# external-memory enumeration e2e: a tiny 1 MiB budget must still produce
	# the exact in-RAM totals (the engine-level parity is in the machine
	# suite's extmem tests; here the CLI path), then the kill/resume contract:
	# a state-capped run exits 3 keeping its spill dir, and --resume
	# completes it with identical totals
	dune exec bin/memrel_cli.exe -- enumerate inc4 --extmem --mem-budget 1 | grep -q "states 3931"
	# the external-memory BFS skips its sleeping successors too, and reports
	# the plain worklist's counters
	dune exec bin/memrel_cli.exe -- enumerate inc4 --model tso --extmem --mem-budget 1 | grep -q "transitions 8828; dedup hits 4898"
	dune exec bin/memrel_cli.exe -- enumerate inc4 --model tso --extmem --mem-budget 1 | grep -q "states 3931"
	# the in-RAM worklist (spliced successor keys) on the same test
	dune exec bin/memrel_cli.exe -- enumerate inc4 --model pso | grep -q "states 3931"
	# the sleep sets skip building successors but leave every counter as
	# the plain worklist reports it
	dune exec bin/memrel_cli.exe -- enumerate inc4 --model tso | grep -q "transitions 8828; dedup hits 4898"
	dune exec bin/memrel_cli.exe -- enumerate inc4 --model tso | grep -q "max frontier 25"
	dune exec bin/memrel_cli.exe -- enumerate inc4 --model wo | grep -q "states 1916"
	rm -rf /tmp/memrel_ci_spill
	dune exec bin/memrel_cli.exe -- enumerate inc4 --spill-dir /tmp/memrel_ci_spill --max-states 1500 > /dev/null; test $$? -eq 3
	dune exec bin/memrel_cli.exe -- enumerate inc4 --spill-dir /tmp/memrel_ci_spill --resume | grep -q "states 3931"
	test ! -e /tmp/memrel_ci_spill/MANIFEST
	rm -rf /tmp/memrel_ci_spill
	# adaptive-stopping contract: --target-width prints the achieved interval
	# and exits 0; under an expired deadline the partial result exits 3
	dune exec bin/memrel_cli.exe -- shift --target-width 0.01 --seed 4 | grep -q "adaptive: target width"
	dune exec bin/memrel_cli.exe -- joint --model sc -n 2 --target-width 0.01 > /dev/null
	dune exec bin/memrel_cli.exe -- shift --target-width 0.01 --deadline 0 > /dev/null; test $$? -eq 3
	# checkpoint identity: a snapshot resumes only the estimator that wrote
	# it; any other is refused with a one-line error and exit 123
	rm -f /tmp/memrel_ci.ck
	dune exec bin/memrel_cli.exe -- shift --seed 7 --trials 100000 --jobs 1 --checkpoint /tmp/memrel_ci.ck > /dev/null
	dune exec bin/memrel_cli.exe -- joint --model sc -n 2 --seed 7 --trials 100000 --jobs 1 --resume /tmp/memrel_ci.ck > /dev/null 2>&1; test $$? -eq 123
	dune exec bin/memrel_cli.exe -- window --seed 7 --trials 100000 --jobs 1 --resume /tmp/memrel_ci.ck > /dev/null 2>&1; test $$? -eq 123
	rm -f /tmp/memrel_ci.ck
	# nonpositive trial counts are usage errors (124), not internal errors
	dune exec bin/memrel_cli.exe -- shift --trials 0 > /dev/null 2>&1; test $$? -eq 124
	dune exec bin/memrel_cli.exe -- window --trials 0 > /dev/null 2>&1; test $$? -eq 124
	# so are negative budgets
	dune exec bin/memrel_cli.exe -- window --deadline=-1 > /dev/null 2>&1; test $$? -eq 124

clean:
	dune clean
