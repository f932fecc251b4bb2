#!/usr/bin/env bash
# Rejection gate for CI: runs a command that must be REFUSED and fails
# (exit 1, with the command's output) unless the refusal was clean.
#
#   tools/assert_rejects.sh [--exit N] CMD [ARGS...]
#
# Clean means: CMD exited nonzero, below 128 (128 and up is a death by
# signal, e.g. a segfault, which is a crash and not a rejection), printed
# no Python traceback, and, with --exit N, exited with exactly N.
set -u

want=""
if [ "${1:-}" = "--exit" ]; then
    want=${2:?--exit needs a code}
    shift 2
fi
if [ $# -eq 0 ]; then
    echo "usage: tools/assert_rejects.sh [--exit N] CMD [ARGS...]" >&2
    exit 2
fi

cmd="$*"
out=$("$@" 2>&1)
rc=$?
fail() {
    echo "$1 from: $cmd" >&2
    printf '%s\n' "$out" >&2
    exit 1
}
[ "$rc" -ne 0 ] || fail "expected a nonzero exit"
[ "$rc" -lt 128 ] || fail "crashed or killed by a signal (exit $rc)"
[ -z "$want" ] || [ "$rc" -eq "$want" ] || fail "expected exit $want, got $rc"
if printf '%s' "$out" | grep -q Traceback; then fail "unhandled traceback"; fi
exit 0
