# Developer gate for the repository. `make check` is the one command to
# run before sending a change: tier-1 verify (build + test) plus vet,
# the custom static-analysis suite, the race-detector suite and the
# example programs.

GO ?= go

.PHONY: build vet lint lint-audit test ledger test-race test-chaos examples bench bench-smoke bench-hotpath bench-serve bench-slo bench-jobs bench-streaming fuzz check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Custom static analysis (internal/analysis via cmd/mfodlint): the
# numeric-core invariants (nodeterminism / floateq / mutafterfit /
# poolmisuse) plus the distributed-tier invariants (ctxpropagate /
# lockio / wirebounds / metricshygiene — the last keeps # HELP /
# # TYPE exposition literals inside internal/metrics, whose typed
# registry enforces the metric naming rules), with
# //mfodlint:allow escape hatches that must carry a reason. See the
# README "Static analysis" section and the DESIGN.md invariant table.
lint:
	$(GO) run ./cmd/mfodlint ./...

# Audit the suppression directives themselves: list every live
# //mfodlint:allow with its reason, fail on stale or malformed ones.
lint-audit:
	$(GO) run ./cmd/mfodlint -audit ./...

test:
	$(GO) test ./...

# Regenerate the bitwise score ledger (testdata/score_ledger.json) after
# an intentional numeric change, next to the 1e-12 goldens' line:
#   go test -run 'TestGoldenScores$$|TestGoldenStreamScores' -update .
# The ledger records the Go release that writes it and compares only on
# amd64 under that release; CI's ledger job sets that release up.
ledger:
	$(GO) test -count=1 -run 'TestScoreLedger$$' -update .

# The race suite focuses on the concurrent paths: the serving subsystem,
# the gateway tier (hedged legs, topology watcher, health prober), the
# route table and the body decoder that sit in front of every
# concurrent request on both tiers, the shared-pipeline scoring
# guarantee, the server binary, the smoothing/mapping hot path (worker
# pool + shared basis cache), the fitted models scored from every pool
# worker at once (the depth baselines' and iForest's batch scores, the
# experiment runner's repetitions), the metrics registry (observed and
# scraped concurrently), the job manager (a supervisor goroutine per
# job, its chunks on the shared pool under the token budget), the
# retrying job and stream clients, the load generator's paced senders,
# and the analyzer suite (whose repo-clean test loads and checks the
# whole tree).
test-race:
	$(GO) test -race ./internal/serve ./internal/gate ./internal/resilience \
		./internal/httpapi ./internal/wire \
		./internal/core ./cmd/mfodserve ./cmd/mfodgate \
		./internal/fda ./internal/geometry ./internal/parallel \
		./internal/depth ./internal/iforest ./internal/eval \
		./internal/stream ./internal/analysis ./internal/metrics \
		./internal/jobs ./internal/client ./cmd/mfodload

# Chaos gate: the fault-injection and resilience packages plus the serve
# chaos suite (Chaos* tests arm faultinject points), under the race
# detector with MFOD_CHAOS=1 amplifying scenario repetitions.
test-chaos:
	MFOD_CHAOS=1 $(GO) test -race -count=1 \
		./internal/faultinject ./internal/resilience ./internal/serve

# Run every program under examples/ end to end: each builds, fits and
# scores a pipeline through the public API, which `go build ./...` only
# compiles. None writes a file or opens a socket.
examples:
	for e in examples/*/; do echo "== $$e"; $(GO) run ./$$e || exit 1; done

bench:
	$(GO) test -bench=. -benchmem -run=^$$ .

# benchmark/ is a Go module of its own, so `go test ./...` never compiles
# it: build it and run its smoke tests, so an internal API change that
# breaks the benchmark fails here rather than when the benchmark runs.
bench-smoke:
	cd benchmark && $(GO) test ./...

# Machine-readable hot-path benchmark (sequential seed path vs worker
# pool + basis cache); fails below a 2x speedup. CI archives the report.
bench-hotpath:
	$(GO) run ./cmd/mfodbench -bench -bench-out BENCH_hotpath.json -bench-min-speedup 2

# Serving-tier benchmark: mfodload boots 3 in-process mfodserve replicas
# plus an mfodgate over them and drives binary-wire scoring load, writing
# p50/p99/p999 latency, achieved RPS, the error budget and the
# wire-vs-JSON bytes-per-request comparison to BENCH_serve.json. Fails on
# any client-visible error. CI archives the report.
bench-serve:
	$(GO) run ./cmd/mfodload -self 3 -rps 150 -duration 10s -o BENCH_serve.json

# SLO chaos harness: mfodload drives the hermetic fleet through scripted
# scenarios — baseline, an injected-latency replica, a 2x overload
# burst, a replica kill — each request carrying a real client deadline
# propagated via X-Mfod-Deadline-Ms. Writes BENCH_slo.json and fails
# when goodput drops below the floor, when overload yields anything
# worse than a 429, or when the fleet wastes work on dead deadlines.
# Runs under the race detector: the scenarios are concurrency chaos.
bench-slo:
	$(GO) run -race ./cmd/mfodload -slo -self 3 -rps 100 -duration 3s \
		-slo-min-goodput 0.9 -slo-max-wasted 0 -o BENCH_slo.json

# Bulk-scoring benchmark: mfodload boots the hermetic fleet with the
# async jobs API enabled, streams back-to-back bulk jobs through
# internal/client while pacing interactive traffic beside them, and
# gates on time-to-first-result, bitwise fidelity against synchronous
# scoring, and the interactive p99 surviving under bulk load. Writes
# BENCH_jobs.json; CI archives the report.
bench-jobs:
	$(GO) run ./cmd/mfodload -jobs -self 3 -rps 50 -duration 5s \
		-jobs-samples 512 -jobs-chunk 64 -jobs-max-ttfr 2s \
		-jobs-max-p99 500ms -o BENCH_jobs.json

# Streaming-ingestion benchmark: mfodload boots the hermetic fleet with
# streaming enabled and completes live streams chunk-by-chunk through
# the gate, each append piggybacking an early-warning score. Gates on a
# streams/sec floor and on every completed stream's final score matching
# the batch path bitwise. Writes BENCH_streaming.json; CI archives it.
bench-streaming:
	$(GO) run ./cmd/mfodload -streams 64 -self 3 -stream-chunk 10 \
		-concurrency 16 -streams-min-rate 5 -o BENCH_streaming.json

# 30-second fuzz smoke on the B-spline evaluator (knot-boundary and
# derivative edge cases); the corpus lives in internal/bspline/testdata.
# The span-fit fuzzer holds the smoother, whose design products skip
# each row's zeros, bitwise to the same fit on a dense design whose hat
# diagonal comes from a plain reference of the selected-inverse
# recursion (knot and one-ulp grids, orders 1–8, signed zeros,
# subnormals, huge values and λ, Fourier bases). The dataset-fit fuzzer
# holds the grouped smoother, which fits every curve on a grid at once,
# bitwise to the single-curve selection loop it replaced, for every
# block size and worker count, with and without a cache: 1–40 curves
# on shared, jittered and prefix grids, values scaled up to 1e±150,
# both criteria, λ ladders that fail some fits (same error text). The
# stream-append
# fuzzer throws hostile HTTP bodies (NaN/Inf, out-of-order, oversized,
# garbage, junk after the value) at the streaming routes, mounted on
# the route table as the replica mounts them, and checks that every
# refusal is an envelope, plus a state-corruption oracle. The
# wire-decode fuzzer feeds each untrusted input to both binary frame
# decoders, the request's and the job-chunk scores': each must fail with
# ErrWire, never panic or over-allocate, and a frame that decodes must
# re-encode to the same bytes. The request-decode fuzzer feeds
# untrusted JSON bodies to the shared body decoder's scanner: it must
# fail with ErrJSON or decode, a
# body that decodes must come back bitwise through its frame and through
# its JSON re-encoding, and the differential oracle holds it to
# encoding/json, which it may only refuse beyond with a named refusal
# (a null where a value belongs, a field given twice). The
# append-decode fuzzer holds the stream append's scanner to the same
# oracle, with a point without t as a third refusal. The model-file
# fuzzer holds LoadPipelineJSON to the encoding/json codec it replaced:
# the same accept or refuse, the same pipeline bit for bit, and only
# the named refusals beyond it (a null, a field given twice, data after
# the document, a tree node with one child). A model file is a kilobyte
# or more, and minimizing each new input in full would take the whole
# 30 s, so its minimization stops after 200 tries.
fuzz:
	$(GO) test -fuzz=FuzzBSplineEval -fuzztime=30s -run=^$$ ./internal/bspline
	$(GO) test -fuzz=FuzzSpanFit -fuzztime=30s -run=^$$ ./internal/fda
	$(GO) test -fuzz=FuzzFitDataset -fuzztime=30s -run=^$$ ./internal/fda
	$(GO) test -fuzz=FuzzStreamAppend -fuzztime=30s -run=^$$ ./internal/stream
	$(GO) test -fuzz=FuzzWireDecode -fuzztime=30s -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzRequestDecode -fuzztime=30s -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzAppendDecode -fuzztime=30s -run=^$$ ./internal/wire
	$(GO) test -fuzz=FuzzLoadPipeline -fuzztime=30s -fuzzminimizetime=200x -run=^$$ ./internal/core

check: build vet lint test test-race test-chaos examples bench-smoke
