.PHONY: build test race bench soak soak-smoke serve-smoke diagnose-smoke

build:
	go build ./...

# benchmark/ is a nested module: the root ./... pattern skips it.
test:
	go test ./...
	cd benchmark && go test ./...

race:
	go test -race -shuffle=on ./...

# The one ledger: the end-to-end benchmark declared in BENCHMARK.json
# (see benchmark/README.md for workloads, metrics and the layer table).
# The Benchmark* functions across the packages are ungated explanations
# of its per-layer rows.
bench:
	bash benchmark/run.sh

# Chaos soak: randomized composed-fault sessions under the race
# detector, asserting the robustness contract (no process death, every
# run ends in answer / partial / typed error, wall-clock-free runs
# byte-deterministic). soak is the full acceptance run; soak-smoke is
# the short CI variant.
SOAK_N       ?= 500
SOAK_SMOKE_N ?= 25

soak:
	go run -race ./cmd/nvsoak -sessions $(SOAK_N) -seed 1

soak-smoke:
	go run -race ./cmd/nvsoak -sessions $(SOAK_SMOKE_N) -seed 1

# Service smoke: nvload self-hosts an nvprofd pool and proves the full
# admit -> shed -> reject -> drain lifecycle under the race detector —
# 50 mixed sessions, a deterministic overload burst that must shed and
# fast-reject with Retry-After, then a drain probe that must observe an
# exact virtual-time cut with the report flushed. Zero process deaths.
serve-smoke:
	go run -race ./cmd/nvload -smoke

# Diagnosis smoke: the corpus goldens (planted root causes, budget
# accounting) plus the concurrent-search and /v1/diagnose stream/drain
# tests under the race detector.
diagnose-smoke:
	go test -run 'TestDiagnosisCorpus' .
	go test -race -run 'TestConsultantConcurrentSearches|TestConsultantBudgetRespected' ./internal/paradyn
	go test -race -run 'TestDiagnose' ./internal/serve
