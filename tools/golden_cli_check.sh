#!/usr/bin/env sh
# Golden-output gate for the CLI front ends: `sqlnf query`,
# `sqlnf validate` and `sqlnf shell` must stay byte-identical across
# refactors of the layers under them. The query/validate goldens in
# tests/golden/ were captured on the contractor corpus before the
# session/result refactor; the shell goldens (s1-s3, inputs in
# tests/golden/s*.sql) before the shell moved onto engine/session.h,
# and s4 (NATURAL JOIN under WHERE) before SELECT filtered each join
# input ahead of the join.
# Any diff here means user-visible output changed.
#
# Usage: golden_cli_check.sh <sqlnf_binary> <golden_dir>
set -u

if [ "$#" -ne 2 ]; then
  echo "usage: $0 <sqlnf_binary> <golden_dir>" >&2
  exit 2
fi

sqlnf="$1"
golden="$2"
work=$(mktemp -d) || exit 2
trap 'rm -rf "$work"' EXIT
fail=0

"$sqlnf" corpus contractor "$work/contractor.csv" > /dev/null || {
  echo "FAIL: could not generate the contractor corpus"
  exit 1
}

# q1: predicate mix (AND/OR precedence, comparisons) with projection.
"$sqlnf" query "$work/contractor.csv" \
  "SELECT city, url, dmerc_rgn, status FROM contractor WHERE status = 'retired' AND contractor_id < 60 OR dmerc_rgn = 'R2'" \
  > "$work/q1.txt" 2>&1
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: q1 exited $status (want 0)"
  fail=1
fi

# q2: a two-statement script (BETWEEN, IN, NULL comparison semantics).
"$sqlnf" query "$work/contractor.csv" \
  "SELECT * FROM contractor WHERE contractor_id BETWEEN '10' AND '14'; SELECT cmd_name, phone FROM contractor WHERE dmerc_rgn = NULL AND contractor_id IN ('3', '5', '151')" \
  > "$work/q2.txt" 2>&1
status=$?
if [ "$status" -ne 0 ]; then
  echo "FAIL: q2 exited $status (want 0)"
  fail=1
fi

# v1: mixed satisfied/violated constraints; exit 1 signals violations.
"$sqlnf" validate "$work/contractor.csv" \
  'city,url ->w dmerc_rgn,status; cmd_name,phone,url ->w contractor_version,status_flag; address1,contractor_bus_name,contractor_type_id ->w url; c<contractor_id>; city,state ->w contractor_id' \
  --threads 2 > "$work/v1.txt" 2>&1
status=$?
if [ "$status" -ne 1 ]; then
  echo "FAIL: v1 exited $status (want 1: violations present)"
  fail=1
fi

# s1-s3: the SQL shell. Each golden holds stdout, then a "--- stderr"
# line and stderr, so a message that moves between the streams shows.
shell_case() {
  name="$1"
  want="$2"
  shift 2
  "$sqlnf" shell "$@" > "$work/$name.txt" 2> "$work/$name.err"
  status=$?
  printf '\n--- stderr\n' >> "$work/$name.txt"
  cat "$work/$name.err" >> "$work/$name.txt"
  if [ "$status" -ne "$want" ]; then
    echo "FAIL: $name exited $status (want $want)"
    fail=1
  fi
}

# s1: script mode — DDL with CERTAIN KEY / CERTAIN FD, a transaction
# whose SELECT sees its own uncommitted row, ROLLBACK, SHOW, DESCRIBE.
shell_case s1 0 "$golden/s1.sql" < /dev/null

# s2: the same statements on stdin, then a rejected INSERT; the
# interactive shell prints the error on stdout and keeps going.
cat "$golden/s1.sql" "$golden/s2.sql" > "$work/s2.in"
shell_case s2 0 < "$work/s2.in"

# s3: script mode stops at the rejected second statement: exit 1, the
# error on stderr, nothing on stdout.
shell_case s3 1 "$golden/s3.sql" < /dev/null

# s4: NATURAL JOINs under WHERE on stdin — ⊥ and duplicates in the join
# columns, atoms on a join column, on one side and across sides, a
# 3-way join, a self-join, unknown columns, and a join inside an open
# transaction. The unknown-column errors print and the run goes on.
shell_case s4 0 < "$golden/s4.sql"

for case in q1 q2 v1 s1 s2 s3 s4; do
  if ! diff -u "$golden/$case.txt" "$work/$case.txt"; then
    echo "FAIL: $case output diverged from tests/golden/$case.txt"
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  exit 1
fi
echo "OK: CLI output byte-identical to the goldens in tests/golden/."
exit 0
