# CI entry points for the conf_icpp_SaezCP20 reproduction.
#
#   make ci      - everything a PR must pass: vet (go vet, gofmt -l .
#                  listing no file, then a darwin/arm64 and a windows build
#                  of everything outside bench/, whose spinners are
#                  Linux-only, so that the non-Linux twin of a Linux-only
#                  file keeps compiling; the tree's structural rules are the
#                  tier-1 test internal/rules, not vet lines),
#                  build, the whole suite (plain, plus the
#                  lock-free layers and the figure sweeps under -race),
#                  the multi-loop conformance/race suite under -race
#                  -count=2, and make fuzz. Every example is run by its own
#                  tier-1 test. It writes nothing into the tree (a fuzz
#                  failure adds its input under the package's testdata/fuzz/).
#   make test    - tier-1: go build ./... && go test -count=1 ./...
#   make race    - race-detector run over the lock-free scheduler/pool layers,
#                  the metrics cells (a loop's release fills its outcome
#                  while scrapers read the same cells), the real-goroutine
#                  runtime, aidserve (its scrapers read
#                  the request records its submitter and completion
#                  goroutines write) and internal/exps (its sweeps
#                  run simulator calls on every CPU at once, so this is where
#                  "concurrent calls share only read-only inputs" is checked;
#                  about 20 s alone on a 2-CPU box and 30 beside the other
#                  packages, 11 of them TestRunProgramDifferential, which
#                  simulates every repetition of the figures' programs twice
#                  over on purpose),
#                  then the whole suite without -race (-count=1). The second
#                  run is where every gate that a `-run` list used to select
#                  lives, since a renamed test cannot drop out of ./...: the
#                  AllocsPerRun
#                  and cache-line layout gates (they skip themselves under
#                  -race), record/replay determinism (cmd/aidtrace), the
#                  platform-zoo codec, conformance and cross-engine tests,
#                  the flight-recorder suite with aidstat's golden fixture,
#                  aidserve's smoke run through both engines, and the two
#                  exact gates on simulated numbers named below.
#   make race-multiloop - the multi-tenant conformance, registry and team
#                  race suite under -race -count=2, so flaky interleavings
#                  surface in CI, not in production
#   make fuzz    - every fuzz target of the tree's input codecs for 10 s each,
#                  one worker, no test run first: the run-record
#                  decoder (FuzzDecodeJSONL, whose in-place line readers are
#                  right only as far as the fuzzer finds them agreeing with
#                  encoding/json), platform files, -classes and schedule
#                  text. Not tier-1: without -fuzz only the seed corpora run.
#   make bench-ab BASE=<rev> W=<workload> [PAIRS=10 SECONDS=20] - compare
#                  the repository benchmark (./bench, BENCHMARK.json) between
#                  a revision and the working tree: builds BASE's ./bench from
#                  a `git archive` of BASE unpacked under .bench_build/ (no
#                  git worktree, so it runs in any clone) and the working
#                  tree's next to it, runs PAIRS untraced pairs of workload W
#                  alternating which side goes first (this host drifts by
#                  minutes; see bench/README.md), and ends with
#                  `bench -compare old/ new/`, whose exit code it returns
#
# Measuring. There is one place for each kind of number:
#   host time (ns per claim, iterations/s, serve p50/p90, allocations) -
#       ./bench, declared in BENCHMARK.json and described in
#       bench/README.md; compared between revisions only by `make bench-ab`
#       (alternating pairs, medians against the parent's spread). No single
#       sample of host time is committed anywhere.
#   simulated numbers (virtual time, so exact) - gated to the digit by
#       tier-1: cmd/aidbench TestExpGolden (every `aidbench -exp` table:
#       the Fig. 1/4 traces, Fig. 2 SF series, Fig. 6-9, Table 2, guided,
#       hybrid-pct, the zoo's makespan and energy, and the ablation table of
#       the AID design choices), internal/sim TestEngineGolden (960 engine
#       digests), and cmd/aidserve TestServeSmoke (the virtual serve's
#       percentiles). There are no `go test` benchmarks outside bench/, and
#       internal/rules keeps it so: a simulated number belongs in a golden
#       table.

GO ?= go

.PHONY: ci vet build test race race-multiloop fuzz bench-ab

ci: vet build race race-multiloop fuzz

# gofmt -l prints the files it would rewrite, and grep makes any such file a
# failure. The tree's structural rules (no benchmark outside bench/, one
# imbalance formula, lock-free AID schedulers, one sampler, the engines'
# import layering, one home of the schedule vocabulary, no retired names)
# are rows of the tier-1 test internal/rules, which reads parsed code.
# The two cross builds compile the build-tagged twins (internal/rt's worker
# placement) that a Linux build never sees; go build of several packages
# writes no binary.
vet:
	$(GO) vet ./...
	! gofmt -l . | grep .
	GOOS=darwin GOARCH=arm64 $(GO) build ./internal/... ./cmd/... ./examples/...
	GOOS=windows $(GO) build ./internal/... ./cmd/... ./examples/...

build:
	$(GO) build ./...

test: build
	$(GO) test -count=1 ./...

race:
	$(GO) test -race ./internal/core/... ./internal/pool/... ./internal/obs/... ./internal/rt/... ./internal/fair/... ./internal/exps/... ./cmd/aidserve/...
	$(GO) test -count=1 ./...

race-multiloop:
	$(GO) test -race -count=2 -run 'MultiTenant|Registry|MultiLoop|Team' ./internal/core/ ./internal/rt/ ./internal/sim/
	$(GO) test -race -count=2 ./internal/fair/

# -fuzzminimizetime 0s: minimizing a new input can stall a run at a few
# hundred executions; -parallel 1 keeps each run to one worker process.
FUZZ := -run '^$$' -fuzztime 10s -fuzzminimizetime 0s -parallel 1

fuzz:
	$(GO) test ./internal/trace $(FUZZ) -fuzz '^FuzzDecodeJSONL$$'
	$(GO) test ./internal/amp $(FUZZ) -fuzz '^FuzzDecodePlatform$$'
	$(GO) test ./internal/fair $(FUZZ) -fuzz '^FuzzParseClasses$$'
	$(GO) test ./internal/rt $(FUZZ) -fuzz '^FuzzParseSchedule$$'

# Both binaries run from the working tree's root, so both read the same
# bench/platforms file and BENCHMARK.json; only the program under test
# differs. Seeds are the pair numbers, the same on both sides.
W ?= fine_chunk
PAIRS ?= 10
SECONDS ?= 20
AB := .bench_build/ab

bench-ab:
	@test -n "$(BASE)" || { echo "usage: make bench-ab BASE=<rev> W=<workload> [PAIRS=10 SECONDS=20]"; exit 2; }
	rm -rf $(AB)/old $(AB)/new $(AB)/base
	mkdir -p $(AB)/base
	git archive $(BASE) | tar -x -C $(AB)/base
	cd $(AB)/base && $(GO) build -o ../bench-old ./bench
	rm -rf $(AB)/base
	$(GO) build -o $(AB)/bench-new ./bench
	for i in $$(seq 1 $(PAIRS)); do \
		if [ $$((i % 2)) -eq 1 ]; then order="old new"; else order="new old"; fi; \
		for side in $$order; do \
			$(AB)/bench-$$side -workload $(W) -seed $$i -seconds $(SECONDS) -trace 0 \
				-out $(AB)/$$side/result-$(W)-seed$$i.json > /dev/null || exit 1; \
		done; \
	done
	$(AB)/bench-new -compare $(AB)/old $(AB)/new
