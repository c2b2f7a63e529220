# Developer entry points; CI runs the same commands.

.PHONY: all build test vet lint loc benchmark bench-smoke fuzz fuzz-fused recovery-smoke transport-soak failover-smoke overload-smoke update-churn-smoke

all: build vet test

build:
	go build ./...

test:
	go test ./...

vet:
	go vet ./...

# lint mirrors CI's lint job: any file gofmt would rewrite fails it, then
# vet plus staticcheck at the version CI pins (install once with
# `go install honnef.co/go/tools/cmd/staticcheck@2024.1.1`).
lint: vet
	@unformatted="$$(gofmt -l .)"; if [ -n "$$unformatted" ]; then echo "gofmt wants to rewrite:"; echo "$$unformatted"; exit 1; fi
	staticcheck ./...

# loc prints the size the simplicity PRs are measured by: non-test Go
# lines outside benchmark/ (CHANGES.md quotes it before and after).
loc:
	@git ls-files '*.go' | grep -v _test.go | grep -v '^benchmark/' | xargs cat | wc -l

# benchmark builds and runs the repo benchmark (BENCHMARK.json): five
# workloads, end-to-end metrics plus the per-layer trace. Numbers and how
# to read them: benchmark/README.md; the recorded baseline:
# benchmark/baseline/.
benchmark:
	bash benchmark/run.sh

# bench-smoke compiles and runs every Go benchmark once and the repo
# benchmark's own ~5 s smoke test — it validates that they still build
# and execute, without measuring anything.
bench-smoke:
	go test -run '^$$' -bench . -benchtime=1x ./...
	cd benchmark && go test ./...

# fuzz runs every fuzz target for 30s each, matching CI's fuzz matrix:
# the fused lane kernel differential, the spine-patch differential
# (patched planes must stay byte-equal to full bottomUp), the triplet
# wire decoder (never panics, keeps rejecting the malformed seeds,
# decode → encode → decode is a fixed point), WAL replay, the v2 frame
# decoder (demux, torn frames, push frames, hostile span blocks), and
# every other payload decoder, one FuzzPayloadDecoders per package over
# that package's codec table (never panics, errors wrap the package
# sentinel, decode → encode → decode is a fixed point). The payload
# targets cap the engine's minimisation of interesting inputs: their
# decoders run in microseconds, and left alone it spends most of the 30s
# minimising instead of executing.
PAYLOAD_FUZZ_PACKAGES = core views serve obs frag xpath xmltree

fuzz: fuzz-fused
	go test ./internal/eval -run Fuzz -fuzz FuzzSpinePatch -fuzztime 30s
	go test ./internal/eval -run Fuzz -fuzz FuzzDecodeTriplet -fuzztime 30s
	go test ./internal/store -run Fuzz -fuzz FuzzWALReplay -fuzztime 30s
	go test ./internal/cluster -run Fuzz -fuzz FuzzV2ResponseDemux -fuzztime 30s
	for p in $(PAYLOAD_FUZZ_PACKAGES); do \
		go test ./internal/$$p -run Fuzz -fuzz FuzzPayloadDecoders -fuzztime 30s -fuzzminimizetime 2s || exit 1; \
	done

# fuzz-fused differentially fuzzes the fused lane kernel: arbitrary
# (tree, fragmentation, query batch) triples must evaluate identically
# through the word-parallel kernel, the scalar per-lane loop, and the
# legacy pointer evaluator. CI runs the same target for 30s.
fuzz-fused:
	go test ./internal/eval -run Fuzz -fuzz FuzzFusedBottomUp -fuzztime 30s

# recovery-smoke is CI's crash-recovery gate: SIGKILL a durable site
# daemon mid-run and restart it from its data dir, plus the in-process
# crash differential, all under the race detector.
recovery-smoke:
	go test -race -run 'TestDaemonCrashRecovery' ./cmd/parbox-site
	go test -race -run 'TestCrashRecoveryDifferential|TestVersionMonotonicityAndStaleCacheRejection|TestTopologyChangeRecovery' .

# transport-soak is CI's wire-protocol gate: the v2-TCP differential
# (answers and byte/message/cache counters of all six algorithms pinned
# to the in-memory transport), the 64-concurrent-queries × 8-site
# multiplexing soak, and the scheduler fair-share invariants — all under
# the race detector — plus the v2 frame-decoder unit tests.
transport-soak:
	go test -race -run 'TestTransport|TestSchedulerFairShare' ./internal/integration
	go test -race -run 'TestV2|TestHandshake|TestServerGracefulClose|TestConnFailure' ./internal/cluster

# failover-smoke is CI's replica-failover gate: SIGKILL a real site
# daemon with a workload in flight over a 2x-replicated deployment — the
# coordinator must finish every query with the unfaulted reference
# answers — plus the in-process differential that kills and revives
# sites under all six algorithms, all under the race detector.
failover-smoke:
	go test -race -run 'TestDaemonFailover' ./cmd/parbox-site
	go test -race -run 'TestFailover|TestRebalanceMovesHotFragment' .

# update-churn-smoke is CI's incremental-maintenance gate: real TCP
# sites under a sustained update stream with 1000 standing
# subscriptions — every pushed answer must match a polled oracle, with
# zero dropped deltas — plus the facade subscription lifecycle and the
# empty-update no-op guarantee, all under the race detector.
update-churn-smoke:
	go test -race -run 'TestUpdateChurnSubscriptions' ./internal/integration
	go test -race -run 'TestSubscribe' .
	go test -race -run 'TestUpdateEmptyOpsIsNoOp' ./internal/views

# overload-smoke is CI's overload-protection gate: real site daemons
# serving fat fragments take a 16-worker burst against a tight
# -admission bound (the daemons must shed for real, and every shed must
# be absorbed by a budgeted, backed-off retry with zero wrong answers),
# then a second pass shims one replica 50x slower and hedging must keep
# the burst's p99 far below the injected delay. Plus the in-process
# seeded chaos differential and the already-expired-deadline semantics,
# all under the race detector.
overload-smoke:
	go test -race -run 'TestDaemonOverloadShedding' ./cmd/parbox-site
	go test -race -run 'TestChaosDifferentialSeeded|TestExecTimeoutAlreadyExpired' .
