#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, temporary files, the binary, the
# fleet state directories and the trace files. The module resolves the
# repository's packages through `replace slate => ../`, so outside a full
# checkout the build fails and the script exits non-zero without a result.
set -euo pipefail

build="$(pwd)/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" GOFLAGS= GOPROXY=off GOTOOLCHAIN=local \
	GOWORK=off GOSUMDB=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
