#!/usr/bin/env bash
# Runs one package's tests N times and counts the failures per test.
#
#   scripts/flake-tally.sh PKG N [RUN]
#   scripts/flake-tally.sh ./internal/cluster 30
#   scripts/flake-tally.sh ./internal/cluster 50 TestClusterGoldenScaleUp
#
# Each run is `go test -count=1 -v PKG` (with `-run RUN` when RUN is given),
# from the current directory, so the same script tallies another checkout
# when started there. One line per run says ok or FAIL with the failing
# tests' names; a failed run whose output holds no `--- FAIL` line (a panic,
# a timeout, a build error) counts under "(no --- FAIL line)". At the end come
# the number of failed runs and the failures per test, most first. The logs of
# failed runs are kept, and their directory is printed.
set -uo pipefail

[ $# -ge 2 ] && [[ "$2" =~ ^[0-9]+$ ]] || { sed -n '2,6p' "$0"; exit 2; }
pkg="$1" n="$2" run="${3:-}"
args=(-count=1 -v)
[ -n "$run" ] && args+=(-run "$run")

logs="$(mktemp -d "${TMPDIR:-/tmp}/flake-tally.XXXXXX")"
tally="$logs/tally"
: > "$tally"
failed=0
for i in $(seq 1 "$n"); do
	log="$logs/run-$i.log"
	if go test "${args[@]}" "$pkg" > "$log" 2>&1; then
		echo "run $i/$n: ok"
		rm -f "$log"
		continue
	fi
	failed=$((failed + 1))
	names=$(sed -n 's/^ *--- FAIL: \([^ ]*\).*/\1/p' "$log")
	[ -n "$names" ] || names="(no --- FAIL line)"
	echo "$names" >> "$tally"
	echo "run $i/$n: FAIL" $names
done
echo "$failed of $n runs failed"
sort "$tally" | uniq -c | sort -rn
if [ "$failed" -gt 0 ]; then
	echo "failed runs' logs: $logs"
else
	rm -rf "$logs"
fi
