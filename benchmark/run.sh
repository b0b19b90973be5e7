#!/usr/bin/env bash
# The benchmark's one command. Builds the shipped `srsched` and the
# benchmark's own `sysbench` in release, then runs `sysbench`.
#
#   benchmark/run.sh                          every workload, timed then traced, seed 7;
#                                             numbers go to benchmark/results/latest.json
#   benchmark/run.sh --smoke                  every workload, 2 rounds, no traced run (CI)
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                             one run; the last line of stdout is the result
#   benchmark/run.sh --compare A.json B.json  two result files against the bounds
#   benchmark/run.sh --pin --seed N           pin the outcome vectors of a seed
#
# Exits non-zero when a build fails or any output check fails.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"

# One target directory for both builds, absolute because the two manifests
# live in different directories. Everything a run leaves behind is under it.
target="${CARGO_TARGET_DIR:-.bench_build}"
case "$target" in
    /*) ;;
    *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" -p sr-cli --bin srsched >&2
cargo build --release --offline --quiet --manifest-path "$root/benchmark/Cargo.toml" >&2

case " $* " in
    *" --workload "* | *" --compare "* | *" --pin "* | *" --manifest "* | *" --all "*) ;;
    *)
        mkdir -p benchmark/results
        set -- --all --seed 7 --out benchmark/results/latest.json "$@"
        ;;
esac
exec "$target/release/sysbench" --srsched "$target/release/srsched" "$@"
