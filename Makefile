GO ?= go

# The benchmarks pinned by the latest BENCH_PR*.json "benchmarks" map;
# benchdiff reruns exactly these. SnapshotInto lives in internal/core.
BENCHDIFF_PATTERN = HotPath|Fig8Tco|FrameCodec|MarshalAppend$$|MultiGroupThroughput

# The wall-clock runtime tests whose outcome depends on goroutine
# scheduling; make stress repeats them, and the whole multi-group
# registry package (pipe-paired shard runtimes), across GOMAXPROCS
# settings.
STRESS_TESTS = ^(TestUDPWirePathEquivalence|TestClusterCloseReleasesGoroutines|TestNodeGoroutineBudget|TestClusterMultiGroupConverges|TestDefaultGroupPortDelegates|TestMaxGroupsBound|TestUDPMultiGroupConverges|TestUDPUnknownGroupCounted|TestGroupStatezSections|TestEvictAppliesToEveryGroup)$$

.PHONY: check vet build test race stress bench benchdiff

## check: the full pre-merge gate (vet + build + race tests + bench smoke)
check:
	./scripts/check.sh

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

## stress: the scheduling-dependent runtime tests, 20 times at each of
## GOMAXPROCS 1, 2 and 4 under the race detector, so an outcome that
## hinges on goroutine timing fails here instead of intermittently
stress:
	$(GO) test -race . -count=20 -cpu 1,2,4 -run '$(STRESS_TESTS)'
	$(GO) test -race ./internal/groups -count=20 -cpu 1,2,4

## bench: every paper table/figure benchmark with allocation stats
bench:
	$(GO) test . -run '^$$' -bench . -benchmem

## benchdiff: opt-in perf gate — rerun the pinned hot-path benchmarks
## and diff against the latest BENCH_PR*.json baseline; >10% ns/op or
## any allocs/op growth fails. Also reachable via BENCHDIFF=1 make check.
benchdiff:
	@tmp=$$(mktemp); trap "rm -f $$tmp" EXIT; \
	$(GO) test . -run '^$$' -bench '$(BENCHDIFF_PATTERN)' -benchtime 0.5s -benchmem > $$tmp && \
	$(GO) test ./internal/core -run '^$$' -bench 'SnapshotInto' -benchtime 0.5s -benchmem >> $$tmp && \
	$(GO) test ./internal/flight -run '^$$' -bench 'Record' -benchtime 0.5s -benchmem >> $$tmp && \
	$(GO) run ./scripts/benchdiff -input $$tmp
