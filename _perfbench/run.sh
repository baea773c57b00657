#!/usr/bin/env bash
# Builds the benchmark from source and runs it:
#
#   bash _perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run from the repository root. Every build product and Go cache lives in
# the build directory ($CARGO_TARGET_DIR, default .bench_build), so the
# run writes nothing outside the checkout.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/tmp" "$out/config"

export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOPROXY=off
export TMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config XDG_CACHE_HOME=$out/cache

(cd "$root/_perfbench" && go build -trimpath -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
