#!/bin/sh
# Golden-file smoke for `cylog analyze` (dune alias analysis-smoke):
#   - text and json certificates match their goldens byte-for-byte, and a
#     second run is byte-identical to the first (determinism);
#   - --votes threads the quorum policy into the certificate (and a
#     designated open head stays at one answer per instance);
#   - exit codes: 1 iff an open statement is unbounded through a cycle —
#     standing and statically-dead opens still print their certificate
#     and exit 0;
#   - every shipped example program earns a finite total-answer bound;
#   - `cylog graph` (the precedence graph) and `cylog classify` match
#     their goldens on every shipped example program.
set -u
CYLOG="$1"
status=0

check_golden() {
  # check_golden NAME GOLDEN CMD...
  name="$1"; golden="$2"; shift 2
  out=$("$@")
  if ! printf '%s\n' "$out" | diff -u "$golden" - >&2; then
    echo "analysis-smoke: $name: output differs from $golden" >&2
    status=1
  fi
  again=$("$@")
  if [ "$out" != "$again" ]; then
    echo "analysis-smoke: $name: two runs disagree (certificate not deterministic)" >&2
    status=1
  fi
}

check_golden figure13-text analyze/figure13.cert.expected \
  "$CYLOG" analyze ../examples/programs/figure13.cyl
check_golden figure13-json analyze/figure13.json.expected \
  "$CYLOG" analyze --format json ../examples/programs/figure13.cyl
check_golden figure3-votes3 analyze/figure3_ve.votes3.expected \
  "$CYLOG" analyze --votes 3 ../examples/programs/figure3_ve.cyl

check_exit() {
  # check_exit FILE WANT
  "$CYLOG" analyze "$1" >/dev/null 2>&1
  code=$?
  if [ "$code" -ne "$2" ]; then
    echo "analysis-smoke: analyze $1: exit $code, expected $2" >&2
    status=1
  fi
}

check_exit bad/unbounded_task_emission.cyl 1
check_exit bad/budget_unknown.cyl 0
check_exit bad/statically_dead_open.cyl 0
check_exit no_such_file.cyl 124

for f in ../examples/programs/*.cyl; do
  json=$("$CYLOG" analyze --format json "$f")
  code=$?
  if [ "$code" -ne 0 ]; then
    echo "analysis-smoke: $f: expected exit 0, got $code" >&2
    status=1
  fi
  case "$json" in
  *'"total_answers":{"kind":"finite"'*) ;;
  *)
    echo "analysis-smoke: $f: expected a finite total-answer bound, got: $json" >&2
    status=1
    ;;
  esac
done

for f in ../examples/programs/*.cyl; do
  prog=$(basename "$f" .cyl)
  check_golden "$prog-graph" "analyze/$prog.graph.expected" "$CYLOG" graph "$f"
  check_golden "$prog-classify" "analyze/$prog.classify.expected" "$CYLOG" classify "$f"
done

exit $status
