.PHONY: build test race bench pprof-events pprof-data pprof-diagnose diagnose-smoke

build:
	go build ./...

# benchmark/ is a nested module: the root ./... pattern skips it.
# ./... includes the chaos soak (TestSoak: 500 randomized composed-fault
# sessions) and the daemon's mixed-load stream contract
# (internal/serve TestMixedLoadStreamContract).
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

# Where the events_hot workload spends its time and its allocations:
# BenchmarkEventsHot is that workload's op rebuilt in the root package
# (the benchmark itself is frozen between [benchmark] PRs), profiled for
# CPU and allocations. Binary and profiles land in the git-ignored
# .bench_build/.
pprof-events:
	mkdir -p .bench_build
	go test -run '^$$' -bench BenchmarkEventsHot -benchtime 100x \
		-o .bench_build/nvmap.test -outputdir .bench_build \
		-cpuprofile events_hot.cpu.pprof -memprofile events_hot.mem.pprof .
	go tool pprof -top -nodecount 35 .bench_build/nvmap.test .bench_build/events_hot.cpu.pprof
	go tool pprof -top -nodecount 20 -sample_index alloc_space .bench_build/nvmap.test .bench_build/events_hot.mem.pprof

# The same for the data plane: BenchmarkDataHot is the data_hot workload's
# op (executor, cmrts and machine are ~90 % of it).
pprof-data:
	mkdir -p .bench_build
	go test -run '^$$' -bench BenchmarkDataHot -benchtime 300x \
		-o .bench_build/nvmap.test -outputdir .bench_build \
		-cpuprofile data_hot.cpu.pprof -memprofile data_hot.mem.pprof .
	go tool pprof -top -nodecount 35 .bench_build/nvmap.test .bench_build/data_hot.cpu.pprof
	go tool pprof -top -nodecount 20 -sample_index alloc_space .bench_build/nvmap.test .bench_build/data_hot.mem.pprof

# The same for the consultant: BenchmarkDiagnosisCorpus is the
# diagnose_corpus op (Diagnose+Text over the five corpus scenarios).
pprof-diagnose:
	mkdir -p .bench_build
	go test -run '^$$' -bench BenchmarkDiagnosisCorpus -benchtime 300x \
		-o .bench_build/nvmap.test -outputdir .bench_build \
		-cpuprofile diagnose.cpu.pprof -memprofile diagnose.mem.pprof .
	go tool pprof -top -nodecount 35 .bench_build/nvmap.test .bench_build/diagnose.cpu.pprof
	go tool pprof -top -nodecount 20 -sample_index alloc_space .bench_build/nvmap.test .bench_build/diagnose.mem.pprof

# Diagnosis smoke: the corpus goldens (planted root causes, budget
# accounting), the per-probe replay reference and the cancelled shared
# replay, plus the concurrent-search, budget, failed-replay and
# /v1/diagnose stream/drain/quota tests and the request pipeline's
# contract over both POST routes under the race detector.
diagnose-smoke:
	go test -run 'TestDiagnosisCorpus|TestDiagnosisReplayReference|TestDiagnoseContextCancelledInSharedReplay' .
	go test -race -run 'TestConsultantConcurrentSearches|TestConsultantBudgetRespected|TestConsultantFailedReplayCachesNothing' ./internal/paradyn
	go test -race -run 'TestDiagnose|TestPipeline' ./internal/serve
