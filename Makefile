# Benchmarks gated by the regression harness. The facade-level SAS
# benchmarks are the contract: cmd/benchdiff compares their ns/op against
# the baseline committed in BENCH_PR3.json and fails above 20% regression.
BENCH ?= Fig5SASSnapshot|Fig6Questions|SASShared
GATE  ?= SAS|Questions

# Observability-plane overhead (PR 5). The disabled path is the
# non-perturbation contract — held to 2%, not the default 20% — while
# obs=on is recorded ungated for reference.
BENCH_OBS ?= ObsOverhead
GATE_OBS  ?= ObsOverhead/obs=off

# Topology & placement (PR 8): the greedy congestion-aware placement at
# fleet scale and the routed send path's per-message overhead, gated
# against BENCH_PR8.json.
BENCH_TOPO ?= TopoPlaceGreedy|TopoSend
GATE_TOPO  ?= Topo

# Columnar SAS engine (PR 9): the Figure 6 question pipeline and the
# zero-allocation steady-state sampling loop, against BENCH_PR9.json.
# benchdiff's allocs gate applies to both — ANY allocs/op increase over
# the committed baseline fails, which is how SampleAll's 0 allocs/op
# is held.
BENCH_SAS ?= Fig6Questions$$|SampleAll
GATE_SAS  ?= Fig6Questions$$|SampleAll$$

# Performance Consultant (PR 10): one full diagnosis search — base
# instrumented run plus every refinement replay — over the compute-heavy
# corpus program, against BENCH_PR10.json. Pure virtual-time execution,
# no wall-clock dependence, so the default 20% gate applies.
BENCH_DIAG ?= ConsultantSearch
GATE_DIAG  ?= ConsultantSearch

.PHONY: build test race bench bench-rebase \
	bench-obs bench-obs-rebase bench-topo bench-topo-rebase \
	bench-sas bench-sas-rebase pprof-sas soak soak-smoke \
	serve-smoke bench-serve bench-serve-rebase \
	bench-diag bench-diag-rebase diagnose-smoke

build:
	go build ./...

# benchmark/ is a nested module: the root ./... pattern skips it.
test:
	go test ./...
	cd benchmark && go test ./...

race:
	go test -race -shuffle=on ./...

bench:
	go test -run '^$$' -bench '$(BENCH)' -benchmem -count=5 . | \
		go run ./cmd/benchdiff -out BENCH_PR3.json -check '$(GATE)'

# Adopt the current numbers as the new baseline (after an intentional
# performance change, on the machine of record).
bench-rebase:
	go test -run '^$$' -bench '$(BENCH)' -benchmem -count=5 . | \
		go run ./cmd/benchdiff -out BENCH_PR3.json -check '$(GATE)' -rebase

# Observability overhead: the obs=off path must stay within 2% of the
# baseline (the plane is provably free when disabled).
bench-obs:
	go test -run '^$$' -bench '$(BENCH_OBS)' -benchmem -count=5 . | \
		go run ./cmd/benchdiff -out BENCH_PR5.json -check '$(GATE_OBS)' -max-regress 2

bench-obs-rebase:
	go test -run '^$$' -bench '$(BENCH_OBS)' -benchmem -count=5 . | \
		go run ./cmd/benchdiff -out BENCH_PR5.json -check '$(GATE_OBS)' -max-regress 2 -rebase

# Topology & placement: both benchmarks are pure host-CPU loops with no
# wall-clock dependence, so the default 20% gate applies.
bench-topo:
	go test -run '^$$' -bench '$(BENCH_TOPO)' -benchmem -count=5 . | \
		go run ./cmd/benchdiff -out BENCH_PR8.json -check '$(GATE_TOPO)'

bench-topo-rebase:
	go test -run '^$$' -bench '$(BENCH_TOPO)' -benchmem -count=5 . | \
		go run ./cmd/benchdiff -out BENCH_PR8.json -check '$(GATE_TOPO)' -rebase

# Columnar SAS engine: time gate plus the zero-tolerance allocs gate.
bench-sas:
	go test -run '^$$' -bench '$(BENCH_SAS)' -benchmem -count=5 . | \
		go run ./cmd/benchdiff -out BENCH_PR9.json -check '$(GATE_SAS)'

bench-sas-rebase:
	go test -run '^$$' -bench '$(BENCH_SAS)' -benchmem -count=5 . | \
		go run ./cmd/benchdiff -out BENCH_PR9.json -check '$(GATE_SAS)' -rebase

# CPU and allocation profiles of the Figure 6 pipeline, the columnar
# engine's contract benchmark. Inspect with `go tool pprof fig6_cpu.pprof`
# (or fig6_mem.pprof with -sample_index=alloc_objects).
pprof-sas:
	go test -run '^$$' -bench 'Fig6Questions$$' -benchtime 2s \
		-cpuprofile fig6_cpu.pprof -memprofile fig6_mem.pprof .

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

# Service throughput ledger: sessions/sec and p95 answer latency against
# the committed BENCH_PR7.json baseline. Wall-clock numbers are
# host-dependent, so the gate is deliberately loose (150%) — it catches
# collapses, not noise. Shed/reject/retry/cut counts ride along
# ungated for trend visibility.
BENCH_SERVE_SESSIONS ?= 300
GATE_SERVE           ?= LoadSession|LoadAnswerP95

bench-serve:
	go run ./cmd/nvload -sessions $(BENCH_SERVE_SESSIONS) -concurrency 24 -bench | \
		go run ./cmd/benchdiff -out BENCH_PR7.json -check '$(GATE_SERVE)' -max-regress 150

bench-serve-rebase:
	go run ./cmd/nvload -sessions $(BENCH_SERVE_SESSIONS) -concurrency 24 -bench | \
		go run ./cmd/benchdiff -out BENCH_PR7.json -check '$(GATE_SERVE)' -max-regress 150 -rebase

# Performance Consultant search cost, gated against BENCH_PR10.json.
bench-diag:
	go test -run '^$$' -bench '$(BENCH_DIAG)' -benchmem -count=5 ./internal/paradyn | \
		go run ./cmd/benchdiff -out BENCH_PR10.json -check '$(GATE_DIAG)'

bench-diag-rebase:
	go test -run '^$$' -bench '$(BENCH_DIAG)' -benchmem -count=5 ./internal/paradyn | \
		go run ./cmd/benchdiff -out BENCH_PR10.json -check '$(GATE_DIAG)' -rebase

# Diagnosis smoke: the corpus goldens (planted root causes, budget
# accounting) plus the concurrent-search and /v1/diagnose stream/drain
# tests under the race detector.
diagnose-smoke:
	go test -run 'TestDiagnosisCorpus' .
	go test -race -run 'TestConsultantConcurrentSearches|TestConsultantBudgetRespected' ./internal/paradyn
	go test -race -run 'TestDiagnose' ./internal/serve
