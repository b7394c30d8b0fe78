#!/usr/bin/env bash
# Run a binary with --help, which every bench/ and examples/ binary accepts.
#
#   scripts/expect_help.sh BINARY [ARGS...]
#
# Passes when BINARY ARGS --help exits 0 with a usage text on stdout and
# nothing on stderr; fails (exit 1) otherwise, printing what it did.
set -u
errfile=$(mktemp)
trap 'rm -f "$errfile"' EXIT
out=$("$@" --help 2>"$errfile")
rc=$?
err=$(<"$errfile")
if [[ $rc -ne 0 ]]; then
  echo "FAIL: '$* --help' exited $rc, expected 0"
  echo "$err"
  exit 1
fi
if [[ $out != "usage: "* || -n $err ]]; then
  echo "FAIL: '$* --help' printed no usage on stdout (or wrote to stderr):"
  echo "$out"
  echo "$err"
  exit 1
fi
echo "OK: '$* --help' printed its usage"
