#!/usr/bin/env bash
# Builds the end-to-end benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#   bash e2ebench/run.sh --workload bns-link --seed 1 --seconds 12 --trace 0
#
# Every file the build writes (Go build cache, toolchain telemetry, the
# binary) goes under .bench_build/ in the checkout. A directory that lacks
# the repository's sources fails the build, so the script exits non-zero
# without printing a result.
set -euo pipefail

out="$PWD/.bench_build/e2ebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache" \
	GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOENV=off GOWORK=off \
	GOAMD64="${GOAMD64:-v3}"

# Provenance: the commit when the checkout is a git work tree, and always a
# digest of the Go sources, so a result names the code it measured.
commit=unknown
if [ -e .git ]; then
	commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo unknown)
fi
digest=$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name '*.s' -o -name go.mod \) -type f -print |
	LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)

(cd e2ebench && go build -trimpath \
	-ldflags "-X main.commit=$commit -X main.sourceDigest=$digest" \
	-o "$out/e2ebench" .) >&2
exec "$out/e2ebench" "$@"
