#!/usr/bin/env bash
# Paired parent/change runs of the repository benchmark, as a markdown table.
#
#   scripts/bench-pairs.sh <parent-rev> [pairs] [workload ...] [-- bench args]
#   make bench-pairs PARENT=<rev> PAIRS=10 WORKLOADS="casvm-dense casvm-sparse" ARGS="--seed 7"
#
# The parent commit is unpacked (git archive) under .bench_build/pairs/, the
# change is this working tree; each side builds its own bench/ with its own
# run.sh. Per workload the two sides run `pairs` times, alternating which
# runs first, and each run's last line — the benchmark's JSON — is read. For
# every workload × end-to-end metric the table gives both medians with their
# quartiles, the relative difference of the medians, the median of the
# per-pair change/parent ratios with a 90% bootstrap interval (2,000
# resamples of the pairs, with replacement, from a fixed seed per row, so a
# rerun over the same runs prints the same interval; "n/a" when a parent
# value is 0), and in how many pairs the change read better (direction from
# BENCHMARK.json; ties count for neither): the rule of bench/README.md
# § Citing. A claim cites the interval: one that excludes 1 says the pairs
# moved together, not only their medians. Raw values stay in
# .bench_build/pairs/runs.tsv. Nothing here edits bench/ or BENCHMARK.json.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
[ $# -ge 1 ] || { sed -n '2,6p' "$0"; exit 2; }
parent_rev="$1"; shift
pairs=10
if [ $# -gt 0 ] && [[ "$1" =~ ^[0-9]+$ ]]; then pairs="$1"; shift; fi
workloads=()
while [ $# -gt 0 ] && [ "$1" != "--" ]; do workloads+=("$1"); shift; done
[ $# -gt 0 ] && shift # the --
args=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
	mapfile -t workloads < <(awk '/"workloads"/ {w = 1} /"end_to_end"/ {w = 0} w && /"name"/ {gsub(/[",]/, "", $2); print $2}' BENCHMARK.json)
fi

work="$root/.bench_build/pairs"
rm -rf "$work/parent"
mkdir -p "$work/parent"
git archive "$parent_rev" | tar -x -C "$work/parent"
runs="$work/runs.tsv"
: > "$runs"

# one <side> <dir> <pair> <workload>: run, append "side pair workload metric value" rows.
one() {
	local side="$1" dir="$2" pair="$3" wl="$4" last
	last="$(bash "$dir/bench/run.sh" --workload "$wl" ${args[@]+"${args[@]}"} | tail -n 1)"
	grep -o '"[a-z_]*":{"value":[^,}]*' <<<"$last" | sed 's/"\([a-z_]*\)":{"value":/\1 /' |
		while read -r metric value; do printf '%s\t%s\t%s\t%s\t%s\n' "$side" "$pair" "$wl" "$metric" "$value"; done >> "$runs"
	printf '%s\t%s\t%s\tfailed_of_attempted\t%s\n' "$side" "$pair" "$wl" \
		"$(sed 's/.*"attempted":\([0-9]*\),"failed":\([0-9]*\).*/\2\/\1/' <<<"$last")" >> "$runs"
}

for wl in "${workloads[@]}"; do
	for pair in $(seq "$pairs"); do
		if [ $((pair % 2)) -eq 1 ]; then
			one parent "$work/parent" "$pair" "$wl"; one change "$root" "$pair" "$wl"
		else
			one change "$root" "$pair" "$wl"; one parent "$work/parent" "$pair" "$wl"
		fi
		echo "bench-pairs: $wl pair $pair/$pairs" >&2
	done
done

echo "parent $(git rev-parse --short "$parent_rev") vs working tree, $pairs alternating pairs, bench args: ${args[*]:-none}"
echo
echo "| workload | metric | parent median [q1, q3] | change median [q1, q3] | Δ median | change/parent ratio, median [90% CI] | change better | failed/attempted (parent, change) |"
echo "|---|---|---|---|---|---|---|---|"
# Direction per metric from BENCHMARK.json, then the table in first-seen order.
awk -F'\t' '
	FNR == NR {
		if ($0 ~ /"name"/) { split($0, a, "\""); name = a[4] }
		if ($0 ~ /"better"/) { split($0, a, "\""); better[name] = a[4] }
		next
	}
	$4 == "failed_of_attempted" {
		split($5, fa, "/"); failed[$1, $3] += fa[1]; attempted[$1, $3] += fa[2]; next
	}
	{
		key = $3 SUBSEP $4
		if (!(key in seen)) { seen[key] = 1; order[++n] = key }
		v[$1, key, $2] = $5; if ($2 > np) np = $2
	}
	function quantile(side, key, q,    i, j, k, t, x, pos, lo) {
		k = 0
		for (i = 1; i <= np; i++) if ((side, key, i) in v) x[++k] = v[side, key, i] + 0
		for (i = 2; i <= k; i++) { t = x[i]; for (j = i - 1; j >= 1 && x[j] > t; j--) x[j + 1] = x[j]; x[j + 1] = t }
		pos = 1 + q * (k - 1); lo = int(pos)
		return lo >= k ? x[k] : x[lo] + (pos - lo) * (x[lo + 1] - x[lo])
	}
	# sorted sorts x[1..k] ascending in place (a Shell sort) and returns k.
	function sorted(x, k,    gap, i, j, t) {
		for (gap = int(k / 2); gap > 0; gap = int(gap / 2))
			for (i = gap + 1; i <= k; i++) {
				t = x[i]
				for (j = i; j > gap && x[j - gap] > t; j -= gap) x[j] = x[j - gap]
				x[j] = t
			}
		return k
	}
	# at is the q-quantile of the sorted x[1..k], as quantile takes it.
	function at(x, k, q,    pos, lo) {
		pos = 1 + q * (k - 1); lo = int(pos)
		return lo >= k ? x[k] : x[lo] + (pos - lo) * (x[lo + 1] - x[lo])
	}
	# ratios prints the median of the per-pair change/parent ratios and its
	# 90% bootstrap interval over pairs.
	function ratios(key,    i, k, b, j, r, s, med, nb) {
		k = 0
		for (i = 1; i <= np; i++) {
			if (!(("parent", key, i) in v) || !(("change", key, i) in v)) continue
			if (v["parent", key, i] + 0 == 0) return "n/a"
			r[++k] = (v["change", key, i] + 0) / (v["parent", key, i] + 0)
		}
		if (k == 0) return "n/a"
		srand(7); nb = 2000
		for (b = 1; b <= nb; b++) {
			for (j = 1; j <= k; j++) s[j] = r[1 + int(rand() * k)]
			med[b] = at(s, sorted(s, k), 0.5)
		}
		sorted(med, nb)
		return sprintf("%.4f [%.4f, %.4f]", at(r, sorted(r, k), 0.5), at(med, nb, 0.05), at(med, nb, 0.95))
	}
	END {
		for (o = 1; o <= n; o++) {
			key = order[o]; split(key, wm, SUBSEP)
			wins = 0; decided = 0
			for (i = 1; i <= np; i++) {
				p = v["parent", key, i] + 0; c = v["change", key, i] + 0
				if (p == c) continue
				decided++
				if ((better[wm[2]] == "higher") == (c > p)) wins++
			}
			pm = quantile("parent", key, 0.5); cm = quantile("change", key, 0.5)
			printf "| %s | %s | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %+.1f%% | %s | %d/%d | %d/%d, %d/%d |\n",
				wm[1], wm[2], pm, quantile("parent", key, 0.25), quantile("parent", key, 0.75),
				cm, quantile("change", key, 0.25), quantile("change", key, 0.75),
				pm == 0 ? 0 : 100 * (cm - pm) / pm, ratios(key), wins, decided,
				failed["parent", wm[1]], attempted["parent", wm[1]], failed["change", wm[1]], attempted["change", wm[1]]
		}
	}
' BENCHMARK.json "$runs"
