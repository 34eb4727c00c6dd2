#!/bin/sh
# Pins the xmtfft_cli exit-code taxonomy documented in the CLI header,
# usage(), and docs/architecture.md section 10:
#   0 ok, 1 harness failure, 2 usage, 3 invalid input,
#   4 deadline exceeded (watchdog), 5 fault budget exhausted,
#   6 interrupted after writing a checkpoint (resume with --resume).
# Usage: test_exit_codes.sh <path-to-xmtfft_cli>
set -u
CLI="$1"
fail=0

expect() {
  want="$1"
  shift
  "$@" > /dev/null 2>&1
  got=$?
  if [ "$got" -ne "$want" ]; then
    echo "FAIL: exit $got, want $want: $*"
    fail=1
  else
    echo "ok: exit $got: $*"
  fi
}

# usage errors: no command, unknown command
expect 2 "$CLI"
expect 2 "$CLI" frobnicate

# invalid input: unknown flag, size with a prime factor above the max radix
expect 3 "$CLI" fft --size 1024 --bogus 1
expect 3 "$CLI" fft --size 134

# invalid input: a shape whose element count overflows size_t
expect 3 "$CLI" fft --size '4194304^3'

# invalid input: a size too large to allocate (32 GiB), under a 2 GiB
# address-space limit so the outcome does not depend on the host's RAM.
# Sanitizer runtimes reserve more address space than that; where even a
# small transform cannot run under the limit, the case is reported skipped.
under_limit() { (ulimit -v 2097152 && exec "$@"); }
if under_limit "$CLI" fft --size 64 --threads 1 > /dev/null 2>&1; then
  expect 3 under_limit "$CLI" fft --size 4294967296 --threads 1
else
  echo "skip: fft --size 4294967296 (the CLI cannot start under ulimit -v)"
fi

# deadline: an absurdly small cycle limit trips the simulator watchdog
expect 4 "$CLI" machine --clusters 4 --size 64x64 --cycle-limit 50

# fault exhaustion: a soft-error rate the bounded recovery cannot beat
expect 5 "$CLI" faults --clusters 4 --size 64x16 \
  --faults soft:flip:0.05 --seed 1

# checkpoint flags without a directory are invalid input
expect 3 "$CLI" machine --clusters 4 --size 64x64 --checkpoint-every 1000
expect 3 "$CLI" machine --clusters 4 --size 64x64 --resume

# a removed flag is invalid input, not silently ignored
expect 3 "$CLI" check --journal j

# interrupted-after-checkpoint: SIGINT a checkpointed run once its first
# snapshot generation exists -> exit 6, and a --resume finishes with the
# byte-identical stdout of an uninterrupted run (exit 0).
ckdir=$(mktemp -d)
sig_args="machine --clusters 16 --size 256x256"
"$CLI" $sig_args > "$ckdir/ref.txt" 2>/dev/null
(
  "$CLI" $sig_args --checkpoint-dir "$ckdir/ck" --checkpoint-every 20000 \
      > /dev/null 2>&1 &
  pid=$!
  n=0
  while [ ! -e "$ckdir/ck/ckpt-000000000001.xckpt" ] \
      && kill -0 "$pid" 2>/dev/null; do
    n=$((n+1))
    [ "$n" -gt 2000 ] && break
    sleep 0.005
  done
  kill -INT "$pid" 2>/dev/null
  wait "$pid"
  exit $?
)
got=$?
if [ "$got" -ne 6 ]; then
  echo "FAIL: exit $got, want 6: SIGINT after checkpoint"
  fail=1
else
  echo "ok: exit 6: SIGINT after checkpoint"
fi
"$CLI" $sig_args --checkpoint-dir "$ckdir/ck" --checkpoint-every 20000 \
    --resume > "$ckdir/out.txt" 2>/dev/null
got=$?
if [ "$got" -ne 0 ] || ! cmp -s "$ckdir/ref.txt" "$ckdir/out.txt"; then
  echo "FAIL: resume after SIGINT (exit $got or stdout diverged)"
  fail=1
else
  echo "ok: exit 0: resume after SIGINT, stdout identical"
fi
rm -rf "$ckdir"

# success
expect 0 "$CLI" fft --size 64
expect 0 "$CLI" configs
expect 0 "$CLI" simulate --config 4k --size 64^3
expect 0 "$CLI" roofline --config 4k --size 64^3

exit $fail
