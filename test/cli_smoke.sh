#!/bin/sh
# Persistence smoke for the cylog CLI (dune alias cli-smoke):
#   - `run --journal DIR --checkpoint FILE` exits 0 and dumps the database;
#   - `recover DIR` and `resume FILE` each exit 0 and print the same
#     "database at fixpoint:" dump as that first run;
#   - `resume` on a file that is not a snapshot exits 1 with the typed
#     reason.
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

for cmd in "recover $work/j" "resume $work/ck"; do
  # $cmd is split on purpose: subcommand, then its path.
  $CYLOG $cmd >"$work/out" 2>&1
  code=$?
  if [ "$code" -ne 0 ]; then
    cat "$work/out" >&2
    fail "$cmd: exit $code, expected 0"
  elif ! dump "$work/out" | diff -u "$work/run.db" - >&2; then
    fail "$cmd: database dump differs from the first run's"
  fi
done

printf 'not a snapshot\n' >"$work/garbage"
out=$("$CYLOG" resume "$work/garbage" 2>&1)
code=$?
if [ "$code" -ne 1 ]; then
  fail "resume on garbage: exit $code, expected 1"
fi
case "$out" in
  *"not a CyLog snapshot (bad magic)"*) ;;
  *) fail "resume on garbage printed: $out" ;;
esac

exit $status
