#!/usr/bin/env bash
# Run a binary that must refuse a flag it does not read.
#
#   scripts/expect_unknown_flag.sh FLAG BINARY [ARGS...]
#
# Passes when BINARY ARGS exits 2 and its stderr names FLAG; fails
# (exit 1) otherwise, printing what the binary did.
set -u
flag=$1
shift
err=$("$@" 2>&1 >/dev/null)
rc=$?
if [[ $rc -ne 2 ]]; then
  echo "FAIL: '$*' exited $rc, expected 2"
  echo "$err"
  exit 1
fi
if [[ $err != *"$flag"* ]]; then
  echo "FAIL: '$*' exited 2 but did not name $flag:"
  echo "$err"
  exit 1
fi
echo "OK: '$*' refused $flag"
