#!/bin/sh
# The benchmark driver's entry point (BENCHMARK.json "command"): build
# ./bench from source inside the checkout, then run it with the
# driver's arguments. People can just `go run ./bench`.
#
# The Go build cache and GOPATH are kept under .bench_build in the
# checkout, so the build reads and writes nothing outside it, and no
# toolchain or module download is ever attempted.
set -eu
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-buildvcs=false
go build -o "$build/tapobench" ./bench
exec "$build/tapobench" "$@"
