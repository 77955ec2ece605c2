#!/usr/bin/env bash
# Run a command that must be refused, and check how it was refused:
#
#   refused.sh STATUS ERR COMMAND [ARG...]
#
# COMMAND runs with its output discarded and its stderr in the file ERR,
# which the caller may check further. The refusal holds if COMMAND exited
# with STATUS, the first line of its stderr starts "error: ", and no line
# holds a Python traceback. An argparse usage error (STATUS 2) prints its
# usage line first, so there the first line must start "usage: " and the
# second hold "<prog>: error: ". Each failed check is named on stderr, and
# any of them makes the script exit 1.
set -u
want=$1 err=$2
shift 2
status=0
"$@" > /dev/null 2> "$err" || status=$?
echo "exit $status: $(cut -c1-200 "$err")"
fail=0
if [ "$status" -ne "$want" ]; then
  echo "refused.sh: exit status $status, not $want" >&2
  fail=1
fi
if [ "$want" -eq 2 ]; then
  if ! head -n 1 "$err" | grep -q '^usage: ' || ! sed -n 2p "$err" | grep -q ': error: '; then
    echo "refused.sh: stderr is not a usage line and then an error line" >&2
    fail=1
  fi
elif ! head -n 1 "$err" | grep -q '^error: '; then
  echo "refused.sh: the first stderr line does not start with 'error: '" >&2
  fail=1
fi
if grep -q Traceback "$err"; then
  echo "refused.sh: stderr holds a traceback" >&2
  fail=1
fi
exit "$fail"
