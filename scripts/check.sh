#!/bin/sh
# The repository's one gate; CI and `make check` both run exactly this.
# Build, format-check and vet both modules, the whole suite once under
# the race detector, the fuzz and microbenchmark smokes, and the
# benchmark harness's own tests. Measuring is bench/'s job: see
# bench/README.md.
set -eux
cd "$(dirname "$0")/.."

go build ./...
# Every Go file, bench/ included, must be gofmt-clean.
test -z "$(gofmt -l .)"
go vet ./...
go vet -C bench ./...
go test -race -count=1 ./...
# The parser, the chunk extractors, the wire codecs and the scratch block
# reader must reject hostile bytes, never panic.
go test -run '^$' -fuzz FuzzParse -fuzztime 10s ./internal/query
go test -run '^$' -fuzz FuzzExtractors -fuzztime 10s ./internal/chunk
go test -run '^$' -fuzz FuzzWireCodec -fuzztime 10s ./internal/colenc
go test -run '^$' -fuzz FuzzDecode -fuzztime 10s ./internal/tuple
go test -run '^$' -fuzz FuzzScratchBlocks -fuzztime 10s ./internal/scratch
# ORDER BY must emit the reference order at any limit and budget.
go test -run '^$' -fuzz FuzzSortKernel -fuzztime 10s ./internal/plan
# GROUP BY must fold to dds.Aggregate's bits at any budget, whatever part
# labels its batches carry. That proves the operator's spilling and replay,
# but both sides run the same dds.Partial; FuzzPartialFold checks that fold
# kernel itself against a map fold that shares none of its code.
go test -run '^$' -fuzz FuzzAggregateKernel -fuzztime 10s ./internal/plan
go test -run '^$' -fuzz FuzzPartialFold -fuzztime 10s ./internal/dds
go test -run '^$' -bench . -benchtime 100x ./internal/hashjoin ./internal/tuple ./internal/plan ./internal/planner ./internal/dds ./internal/congraph ./internal/scratch ./internal/simio
# A statement re-run on a warm cluster, demanding every column (full) or
# none (count): ns/op and the tuples it still builds and probes
# (built/op, probed/op; both 0) once its left rows and its edges' match
# pairs are cached.
go test -run '^$' -bench BenchmarkWarmRepeat -benchtime 100x ./internal/ij
# The planner's -bench . above includes BenchmarkWarmStatement: warm SQL
# statements through plan.Run, whose join recycles its output batches
# (ns/op, B/op, allocs/op per statement).
go test -C bench -short ./...
echo OK
