# Tier-1 verification is `make ci`: build + tests + smoke runs of the MC
# throughput bench, the exhaustive-enumeration bench (including the inc4
# SC/TSO exhaustive counts; like every smoke run it writes under /tmp, so
# the committed BENCH_*.json rows come only from full runs), the
# axiomatic-vs-operational differential, the candidate-generation bench, the
# robustness smoke (checkpoint/resume + fault-retry bit-identity, plus the
# CLI's exit-3 partial-result, checkpoint-identity and positive-count
# contracts), the service smoke (daemon
# cold/warm/restart cache behavior plus its error and partial exit codes),
# the chaos smoke (seeded fault plans vs a clean oracle, kill -9 recovery,
# overload shedding, live-socket refusal, SIGTERM drain), and the
# external-memory enumeration contract (extmem = in-RAM outcome sets
# and terminal counts, tiny-budget spill generations, CLI kill/resume).

.PHONY: all build check test bench bench-json bench-enum bench-axiom bench-exact bench-robust bench-serve ci clean

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

# full-scale MC throughput bench; writes BENCH_mc.json in the repo root
bench-json:
	dune exec bench/main.exe -- --json BENCH_mc.json

# full-scale enumeration bench (packed-key throughput, POR, extmem); writes BENCH_enum.json
bench-enum:
	dune exec bench/main.exe -- --json-enum BENCH_enum.json

# full-scale candidate-generation bench (corpus + inc3..inc5 under all four
# models plus the inc6/inc7 SC frontier where only the solver concludes;
# every row three-way validated: solver = generate = operational, candidate
# counts included); writes BENCH_axiom.json
bench-axiom:
	dune exec bench/main.exe -- --json-axiom BENCH_axiom.json

# exact-arithmetic bench: fixnum fast path vs limb-array reference on the
# exact DP workloads, results asserted identical; writes BENCH_exact.json
bench-exact:
	dune exec bench/main.exe -- --json-exact BENCH_exact.json

# robustness bench: checkpoint, resume and fault-retry runs of the Monte
# Carlo engine vs a bare run (overhead, snapshot size, restore cost), each
# asserted bit-identical to the bare run; writes BENCH_robust.json
bench-robust:
	dune exec bench/main.exe -- --json-robust BENCH_robust.json

# service bench: cold vs warm vs restarted-daemon latency on a mixed query
# trace, warm throughput, responses asserted identical across cache tiers;
# writes BENCH_serve.json
bench-serve:
	dune exec bench/main.exe -- --json-serve BENCH_serve.json

ci:
	dune build
	dune runtest
	dune exec bin/memrel_cli.exe -- axiom sb mp lb inc3 inc4
	# --json-mc-smoke asserts streaming = Reference in-process before timing
	dune exec bench/main.exe -- --json-mc-smoke /tmp/BENCH_mc_smoke.json
	dune exec bench/main.exe -- --json-enum-smoke /tmp/BENCH_enum_smoke.json
	dune exec bench/main.exe -- --json-axiom-smoke /tmp/BENCH_axiom_smoke.json
	dune exec bench/main.exe -- --json-exact-smoke /tmp/BENCH_exact_smoke.json
	dune exec bench/main.exe -- --json-robust-smoke /tmp/BENCH_robust_smoke.json
	# serve bench smoke asserts cold = warm = disk responses before timing
	dune exec bench/main.exe -- --json-serve-smoke /tmp/BENCH_serve_smoke.json
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
	# the exact in-RAM totals (asserted inside --json-enum-smoke above; here
	# the CLI path), then the kill/resume contract: a state-capped run exits 3
	# keeping its spill dir, and --resume completes it with identical totals
	dune exec bin/memrel_cli.exe -- enumerate inc4 --extmem --mem-budget 1 | grep -q "states 3931"
	rm -rf /tmp/memrel_ci_spill
	dune exec bin/memrel_cli.exe -- enumerate inc4 --spill-dir /tmp/memrel_ci_spill --max-states 1500 > /dev/null; test $$? -eq 3
	dune exec bin/memrel_cli.exe -- enumerate inc4 --spill-dir /tmp/memrel_ci_spill --resume | grep -q "states 3931"
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

clean:
	dune clean
