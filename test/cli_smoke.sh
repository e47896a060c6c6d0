#!/bin/sh
# Persistence smoke for the cylog CLI (dune alias cli-smoke):
#   - `run --journal DIR --checkpoint FILE` exits 0 and dumps the database;
#   - `recover DIR` and `resume FILE` each exit 0 and print the same
#     "database at fixpoint:" dump as that first run;
#   - `resume FILE --checkpoint FILE2` checkpoints the restored engine,
#     and `resume FILE2` prints that dump again;
#   - `resume` on a file that is not a checkpoint, or is one in the
#     retired `CYLOG-SNAPSHOT/2` format, exits 1 with the typed reason.
set -u
CYLOG="$1"
PROGRAM="$2"
work=cli-smoke.tmp
rm -rf "$work"
mkdir "$work"
trap 'rm -rf "$work"' EXIT
status=0

fail() {
  echo "cli-smoke: $*" >&2
  status=1
}

# The database dump a run ends with, minus the journal epilogue line
# (it names the directory, and `resume` attaches no journal).
dump() {
  sed -n '/^database at fixpoint:$/,$p' "$1" | grep -v '^journal '
}

"$CYLOG" run --journal "$work/j" --checkpoint "$work/ck" "$PROGRAM" \
  >"$work/run.out" 2>&1 || fail "run exited $?"
dump "$work/run.out" >"$work/run.db"
if ! grep -q '^database at fixpoint:$' "$work/run.db"; then
  cat "$work/run.out" >&2
  fail "run printed no database dump"
fi

for cmd in "recover $work/j" "resume $work/ck --checkpoint $work/ck2" "resume $work/ck2"; do
  # $cmd is split on purpose: subcommand, its path, then any options.
  $CYLOG $cmd >"$work/out" 2>&1
  code=$?
  if [ "$code" -ne 0 ]; then
    cat "$work/out" >&2
    fail "$cmd: exit $code, expected 0"
  elif ! dump "$work/out" | diff -u "$work/run.db" - >&2; then
    fail "$cmd: database dump differs from the first run's"
  fi
done

# refused FILE REASON: `resume FILE` exits 1 and prints REASON.
refused() {
  out=$("$CYLOG" resume "$1" 2>&1)
  code=$?
  if [ "$code" -ne 1 ]; then
    fail "resume $1: exit $code, expected 1"
  fi
  case "$out" in
    *"$2"*) ;;
    *) fail "resume $1 printed: $out" ;;
  esac
}

printf 'not a snapshot\n' >"$work/garbage"
refused "$work/garbage" "not a CyLog snapshot (bad magic)"
printf 'CYLOG-SNAPSHOT/2\n\020\000\000\000payload' >"$work/old"
refused "$work/old" "unsupported snapshot format version 2"

exit $status
