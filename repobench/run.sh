#!/usr/bin/env bash
# Builds the repository benchmark from this checkout's source and runs it
# with the given arguments, from the checkout's root:
#
#   bash repobench/run.sh --workload server --seed 1 --seconds 10 --trace 0
#   bash repobench/run.sh --compare old.txt new.txt
#
# Everything the build and the run write (Go build cache, binary, span
# files) stays under .bench_build in the checkout.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/lhws.go" ]; then
	echo "repobench: $root holds no lhws source tree to measure" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
if [ -z "${REPOBENCH_COMMIT:-}" ] && command -v git >/dev/null; then
	REPOBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || true)
	export REPOBENCH_COMMIT
fi
(cd "$here" && go build -o "$out/repobench" .) >&2
cd "$root"
exec "$out/repobench" "$@"
