#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the
# given arguments, e.g.
#
#   bash e2ebench/run.sh --workload serve --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Build products, the Go build cache
# and trace files stay inside the checkout, under $CARGO_TARGET_DIR
# (default .bench_build). Outside a full checkout (no repository module
# next to e2ebench/) the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root="$(pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/e2ebench" ]; then
	echo "e2ebench: run from the repository root (go.mod and e2ebench/ must be here)" >&2
	exit 2
fi

mkdir -p "$out/gocache" "$out/gopath" "$out/config"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

(cd "$root/e2ebench" && go build -buildvcs=false -o "$out/e2ebench" .)
exec "$out/e2ebench" -outdir "$out" "$@"
