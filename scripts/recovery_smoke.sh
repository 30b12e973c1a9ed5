#!/usr/bin/env bash
# Kill-and-restart recovery smoke test for `kcore serve --data-dir`.
#
# Starts a durable serve process, feeds it a maintenance stream over a
# FIFO, SIGKILLs it mid-flight (no save, no graceful shutdown), then
# restarts against the same data directory and verifies:
#   * the registry is restored (the graph is listed),
#   * the maintained cores pass the Theorem 4.1 fixpoint certificate,
#   * the restored graph still serves maintenance ops,
#   * `kcore fsck` finds the saved directory clean.
#
# The exact kill point is intentionally racy — any prefix of the stream
# may have landed — which is the point: recovery must be correct at every
# kill point, and the certificate check validates whatever state survived
# against the actual recovered graph. The byte-exact kill points are
# covered deterministically by tests/durable_recovery.rs; this script
# checks the real binary + real SIGKILL path end to end.
#
# Usage: scripts/recovery_smoke.sh [workdir]
set -euo pipefail
cd "$(dirname "$0")/.."

workdir="${1:-$(mktemp -d)}"
mkdir -p "${workdir}"
data="${workdir}/data"
rm -rf "${data}"

kcore() {
    cargo run --release -q --bin kcore -- "$@"
}

echo "== build test graph"
printf '0 1\n1 2\n0 2\n2 3\n3 4\n4 5\n' > "${workdir}/edges.txt"
kcore build "${workdir}/edges.txt" "${workdir}/g"

echo "== start durable serve, stream ops, SIGKILL mid-flight"
fifo="${workdir}/pipe"
rm -f "${fifo}"
mkfifo "${fifo}"
cargo run --release -q --bin kcore -- serve --budget-mb 8 --data-dir "${data}" \
    < "${fifo}" > "${workdir}/serve1.log" 2>&1 &
serve_pid=$!
exec 3>"${fifo}"
printf 'open g %s/g\n' "${workdir}" >&3
printf 'insert g 0 3\ninsert g 1 3\ninsert g 2 5\ninsert g 0 4\n' >&3
# Let some (unknown) prefix of the stream land, then kill without mercy.
sleep 2
kill -9 "${serve_pid}" 2>/dev/null || true
wait "${serve_pid}" 2>/dev/null || true
exec 3>&-
rm -f "${fifo}"
echo "-- first process output:"
sed 's/^/   /' "${workdir}/serve1.log"

echo "== restart from the same data dir and verify"
printf 'graphs\nstats g\nverify g\ninsert g 1 5\nverify g\nsave\nquit\n' \
    | cargo run --release -q --bin kcore -- serve --data-dir "${data}" \
    | tee "${workdir}/serve2.log"

grep -q 'restored \[g\]' "${workdir}/serve2.log" \
    || { echo "FAIL: registry not restored after SIGKILL" >&2; exit 1; }
if grep -q 'CERTIFICATE VIOLATED' "${workdir}/serve2.log"; then
    echo "FAIL: recovered state failed the fixpoint certificate" >&2
    exit 1
fi
[ "$(grep -c 'certificate holds' "${workdir}/serve2.log")" -eq 2 ] \
    || { echo "FAIL: expected two passing certificate checks" >&2; exit 1; }
grep -q 'saved all graphs' "${workdir}/serve2.log" \
    || { echo "FAIL: save did not complete" >&2; exit 1; }

echo "== offline check of the recovered and saved data dir"
kcore fsck "${data}" \
    || { echo "FAIL: fsck reported findings after recovery" >&2; exit 1; }

echo "== recovery smoke passed"
