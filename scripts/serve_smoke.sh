#!/bin/sh
# End-to-end smoke for `memrel serve` / `memrel query`, run from `make ci`.
#
# Drives the installed daemon over a temp Unix socket: a cold mixed batch
# (all computed), a warm replay (memory hits), a raw MRF1 frame whose reply
# must be the exact bytes pinned by the protocol suite's golden test, the
# typed error and budget-partial exit codes, a clean shutdown, and a
# restart over the same cache directory that answers from disk. Uses the
# built binary directly so the daemon and client do not contend for the
# dune lock.
set -eu

CLI=./_build/default/bin/memrel_cli.exe
[ -x "$CLI" ] || { echo "serve_smoke: $CLI not built" >&2; exit 1; }

DIR=$(mktemp -d /tmp/memrel_smoke.XXXXXX)
SOCK="$DIR/serve.sock"
CACHE="$DIR/cache"
OUT="$DIR/out.txt"
SERVER_PID=

cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$DIR"
}
trap cleanup EXIT INT TERM

start_daemon() {
  "$CLI" serve --socket "$SOCK" --cache-dir "$CACHE" &
  SERVER_PID=$!
}

fail() { echo "serve_smoke: FAIL: $1" >&2; exit 1; }

start_daemon

# cold mixed batch: every sub-query computed, the duplicate deduplicated
"$CLI" query --socket "$SOCK" --wait 10 \
  "verify sb tso" "enumerate mp wo" "axiom lb pso engine=solver" "verify sb tso" \
  > "$OUT"
[ "$(grep -c '\[computed\]' "$OUT")" -eq 4 ] || fail "cold batch not all computed"

# warm replay: memory hits only
"$CLI" query --socket "$SOCK" "verify sb tso" "enumerate mp wo" > "$OUT"
[ "$(grep -c '\[memory\]' "$OUT")" -eq 2 ] || fail "warm replay not from memory"

# wire bytes: the golden test's `verify sb tso` request frame, sent raw
# (alone, twice in one send, and one byte at a time), is answered each
# time with exactly its pinned memory-hit reply
python3 - "$SOCK" test/service/test_protocol.ml <<'EOF' || fail "raw MRF1 reply differs from the pinned bytes"
import re, socket, struct, sys

sock_path, golden_src = sys.argv[1], open(sys.argv[2]).read()

def pinned(name):
    return bytes.fromhex(re.search(r'let %s = "([0-9a-f]+)"' % name, golden_src).group(1))

def recv_exact(s, n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        if not chunk:
            sys.exit("connection closed mid-reply")
        buf += chunk
    return buf

def reply(s):
    header = recv_exact(s, 8)
    if header[:4] != b"MRF1":
        sys.exit("bad reply magic %r" % header[:4])
    return recv_exact(s, struct.unpack(">I", header[4:])[0])

request, want = pinned("golden_verify_sb_tso_request"), pinned("golden_verify_sb_tso_memory")
frame = b"MRF1" + struct.pack(">I", len(request)) + request
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(10)
s.connect(sock_path)
# the frame alone, then twice in one send (pipelined), then byte by byte
s.sendall(frame)
replies = [reply(s)]
s.sendall(frame + frame)
replies += [reply(s), reply(s)]
for i in range(len(frame)):
    s.sendall(frame[i:i + 1])
replies.append(reply(s))
s.close()
for n, got in enumerate(replies):
    if got != want:
        sys.exit("reply %d: %s, pinned %s" % (n, got.hex(), want.hex()))
EOF

# typed error exits 123
set +e
"$CLI" query --socket "$SOCK" "verify nosuchtest tso" > "$OUT" 2>&1
rc=$?
set -e
[ "$rc" -eq 123 ] || fail "unknown test: expected exit 123, got $rc"
grep -q "unknown-test" "$OUT" || fail "unknown test: no typed error in output"

# budget-partial exits 3
set +e
"$CLI" query --socket "$SOCK" --deadline 0 "enumerate inc5 sc" > "$OUT" 2>&1
rc=$?
set -e
[ "$rc" -eq 3 ] || fail "expired deadline: expected exit 3, got $rc"
grep -q "PARTIAL" "$OUT" || fail "expired deadline: no partial marker in output"

# clean shutdown: daemon exits, socket removed
"$CLI" query --socket "$SOCK" --shutdown > /dev/null
wait "$SERVER_PID" || fail "daemon exited nonzero on shutdown"
SERVER_PID=
[ ! -e "$SOCK" ] || fail "socket not removed on shutdown"

# restart over the same cache directory: answers come from disk
start_daemon
"$CLI" query --socket "$SOCK" --wait 10 "verify sb tso" "enumerate mp wo" > "$OUT"
[ "$(grep -c '\[disk\]' "$OUT")" -eq 2 ] || fail "restart did not serve from disk"

"$CLI" query --socket "$SOCK" --shutdown > /dev/null
wait "$SERVER_PID" || fail "daemon exited nonzero on second shutdown"
SERVER_PID=

echo "serve_smoke: OK"
