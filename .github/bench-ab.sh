#!/usr/bin/env bash
# Same-runner benchmark gate. Runs one workload of bench/run.sh at BASE and
# at the checkout it is run from, ten seeds each, alternating which commit
# runs first, at the benchmark's default run length; then judges the runs
# with `bench/run.sh compare` and exits with its status: 1 when an
# end-to-end metric regressed past its bound in BENCHMARK.json. A run that
# fails its own checks fails the gate too. Run it from the repository:
#
#   bash .github/bench-ab.sh figures HEAD^1
#
# BASE is checked out as a detached worktree under .bench_build/, and each
# side builds its own benchmark binary. A run is the 20 s measured phase
# plus 1-11 s of set-up and checks, so on a 2-vCPU VM one workload takes
# 8-11 minutes.
set -euo pipefail

if [ $# -ne 2 ]; then
	echo "usage: bash .github/bench-ab.sh WORKLOAD BASE" >&2
	exit 2
fi
workload=$1 base=$2
root=$(git rev-parse --show-toplevel)
cd "$root"
wt=$root/.bench_build/ab-base
out=$root/.bench_build/ab-$workload
mkdir -p .bench_build
git worktree remove --force "$wt" 2>/dev/null || rm -rf "$wt"
git worktree prune
git worktree add --detach --quiet "$wt" "$base"
trap 'git -C "$root" worktree remove --force "$wt"' EXIT
rm -rf "$out"
mkdir -p "$out"

# run SIDE DIR SEED runs the workload in DIR, its output in $out/SIDE-SEED.out.
run() {
	local f=$out/$1-$3.out start=$SECONDS
	if ! (cd "$2" && bash bench/run.sh --workload "$workload" --seed "$3") > "$f" 2> "$f.err"; then
		cat "$f" "$f.err"
		echo "bench-ab: the $1 run of $workload at seed $3 failed" >&2
		exit 1
	fi
	echo "bench-ab: $workload seed $3 $1 run took $((SECONDS - start)) s"
}

for seed in $(seq 1 10); do
	if [ $((seed % 2)) = 1 ]; then
		run parent "$wt" "$seed"
		run change "$root" "$seed"
	else
		run change "$root" "$seed"
		run parent "$wt" "$seed"
	fi
done
bash bench/run.sh compare "$out"/parent-{1..10}.out -- "$out"/change-{1..10}.out
