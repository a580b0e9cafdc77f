GO ?= go

.PHONY: all build vet test test-short bench cover fuzz experiments results-check examples chaos-smoke resume-smoke trace-smoke serve-smoke spans-smoke crash-smoke clean

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	test -z "$$(gofmt -l .)"

# bench/ is its own module, so ./... never compiles it; vet and test it
# here too, or an internal API change breaks the benchmark silently.
test:
	$(GO) test ./...
	$(GO) -C bench vet ./...
	$(GO) -C bench test ./...

test-short:
	$(GO) test -short ./...

# bench runs the Go benchmarks, the per-layer probes; TestAllocationBudgets
# holds their allocation counts in tier-1. Numbers a change may cite come
# from the repo benchmark: `sh bench/run.sh`, see bench/README.md.
bench:
	$(GO) test -bench=. -benchmem ./...

cover:
	$(GO) test -cover ./...

fuzz:
	$(GO) test -run xxx -fuzz 'FuzzParse$$' -fuzztime 30s ./internal/swf/
	$(GO) test -run xxx -fuzz 'FuzzParseAuto$$' -fuzztime 10s ./internal/swf/
	$(GO) test -run xxx -fuzz 'FuzzValidateAdmit$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run xxx -fuzz 'FuzzReplayCheckpoint$$' -fuzztime 10s ./internal/serve/
	$(GO) test -run xxx -fuzz 'FuzzPredictWithinMatchesNaive$$' -fuzztime 30s ./internal/cluster/
	$(GO) test -run xxx -fuzz 'FuzzProvablyRisky$$' -fuzztime 30s ./internal/cluster/
	$(GO) test -run xxx -fuzz 'FuzzProvablySafe$$' -fuzztime 30s ./internal/cluster/
	$(GO) test -run xxx -fuzz 'FuzzWALRecover$$' -fuzztime 10s ./internal/wal/
	$(GO) test -run xxx -fuzz 'FuzzIngest$$' -fuzztime 10s ./cmd/servetrace/
	$(GO) test -run xxx -fuzz 'FuzzEarliestSlot$$' -fuzztime 10s ./internal/sched/
	$(GO) test -run xxx -fuzz 'FuzzSpaceSharedPick$$' -fuzztime 10s ./internal/cluster/

experiments:
	$(GO) run ./cmd/experiments -csv results -svg results | tee results/experiments_full.txt
	$(GO) run ./cmd/experiments -exp extensions -csv results -svg results | tee results/extensions_full.txt
	$(GO) run ./cmd/experiments -replicate 5 | tee results/replication.txt

# results-check regenerates every committed artifact into a temp dir and
# compares it with results/: the table and figures 1-4, the extensions
# (allpolicies, hetero, prediction, chaos), the chaos sweep, -replicate 5
# and economics. Every CSV and SVG must be cmp-identical, and every stdout
# transcript diff-identical apart from the wall-clock "[... regenerated
# in ...]" lines. The figures run inside the temp dir with -csv results,
# so their "[wrote results/...]" lines read as in the archive.
results-check:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/experiments ./cmd/experiments; \
	(cd $$tmp && ./experiments -csv results -svg results) > $$tmp/experiments_full.txt; \
	(cd $$tmp && ./experiments -exp extensions -csv results -svg results) > $$tmp/extensions_full.txt; \
	$$tmp/experiments -exp chaos > $$tmp/chaos_full.txt; \
	$$tmp/experiments -replicate 5 > $$tmp/replication.txt; \
	$$tmp/experiments -exp economics > $$tmp/economics.txt; \
	for f in $$tmp/results/*; do \
		cmp $$f results/$${f##*/} || { echo "results-check: $${f##*/} differs from results/"; exit 1; }; \
	done; \
	for f in experiments_full extensions_full chaos_full replication economics; do \
		grep -v ' regenerated in ' results/$$f.txt > $$tmp/want.txt; \
		grep -v ' regenerated in ' $$tmp/$$f.txt > $$tmp/got.txt; \
		diff -u $$tmp/want.txt $$tmp/got.txt || { echo "results-check: $$f.txt differs from results/"; exit 1; }; \
	done; \
	echo "results-check: ok ($$(ls $$tmp/results | wc -l) CSV/SVG files, 5 transcripts)"

# chaos-smoke is a fast end-to-end fault-injection run with the invariant
# checker armed: crashes, stragglers and a correlated outage process over a
# small cluster, one run per recovery-capable policy. Any invariant
# violation or conservation leak fails the target.
chaos-smoke:
	@for pol in edf libra librarisk; do \
		echo "== chaos-smoke $$pol =="; \
		$(GO) run ./cmd/clustersim -policy $$pol -nodes 16 -jobs 200 \
			-check-invariants -fault-seed 7 -fault-mtbf 43200 -fault-mttr 3600 \
			-fault-straggler-mtbf 86400 -fault-correlated-mtbf 172800 \
			|| exit 1; \
	done

# resume-smoke proves interrupt-then-resume end to end on the real
# binary: a journaled figure regeneration is SIGINT'd once the first
# sweep cells are checkpointed, must exit 130, and the resumed run must
# print byte-identical output to an uninterrupted reference run (only
# the wall-clock "[... regenerated in ...]" lines are filtered).
resume-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/experiments ./cmd/experiments; \
	args="-exp fig1 -jobs 2000 -nodes 32"; \
	$$tmp/experiments $$args | grep -v ' regenerated in ' > $$tmp/reference.txt; \
	$$tmp/experiments $$args -resume $$tmp/run.jsonl \
		> $$tmp/interrupted.txt 2> $$tmp/interrupted.err & pid=$$!; \
	while [ ! -s $$tmp/run.jsonl ]; do \
		kill -0 $$pid 2>/dev/null || { echo "resume-smoke: run finished before it could be interrupted; raise -jobs"; exit 1; }; \
		sleep 0.1; \
	done; \
	kill -INT $$pid; \
	code=0; wait $$pid || code=$$?; \
	[ $$code -eq 130 ] || { echo "resume-smoke: interrupted exit code $$code, want 130"; exit 1; }; \
	[ -s $$tmp/run.jsonl ] || { echo "resume-smoke: no journal after interrupt"; exit 1; }; \
	before=$$(wc -l < $$tmp/run.jsonl); \
	$$tmp/experiments $$args -resume $$tmp/run.jsonl | grep -v ' regenerated in ' > $$tmp/resumed.txt; \
	diff -u $$tmp/reference.txt $$tmp/resumed.txt || { echo "resume-smoke: resumed output differs from uninterrupted run"; exit 1; }; \
	echo "resume-smoke: ok ($$before cells journaled before interrupt, $$(wc -l < $$tmp/run.jsonl) total)"

# trace-smoke proves the observability layer end to end on the real
# binaries: a figure regeneration with tracing, metrics and the admission
# audit armed must print byte-identical figures to an unobserved run, the
# audit log must cross-check against the event trace (tracedump exits
# nonzero on any admit/reject disagreement), and the Chrome trace export
# must validate.
trace-smoke:
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/experiments ./cmd/experiments; \
	$(GO) build -o $$tmp/tracedump ./cmd/tracedump; \
	args="-exp fig2 -jobs 500 -nodes 16"; \
	$$tmp/experiments $$args | grep -v ' regenerated in ' > $$tmp/plain.txt; \
	$$tmp/experiments $$args -trace $$tmp/ev.jsonl -trace-format jsonl \
		-metrics $$tmp/metrics.prom -audit $$tmp/audit.jsonl \
		| grep -v ' regenerated in ' > $$tmp/observed.txt; \
	diff -u $$tmp/plain.txt $$tmp/observed.txt \
		|| { echo "trace-smoke: figures differ with observability on"; exit 1; }; \
	$$tmp/tracedump -trace $$tmp/ev.jsonl -audit $$tmp/audit.jsonl; \
	grep -q '^sim_jobs_rejected_total ' $$tmp/metrics.prom \
		|| { echo "trace-smoke: metrics export missing rejection counter"; exit 1; }; \
	$$tmp/experiments $$args -trace $$tmp/trace.json -trace-format chrome >/dev/null; \
	$$tmp/tracedump -chrome $$tmp/trace.json; \
	echo "trace-smoke: ok"

# serve-smoke proves the online admission daemon end to end on the real
# binaries: race-run the serve overload/quota/shed/drain tests and the
# sequential-model differential (TestServeModel), boot admissiond,
# drive 1k requests through admitload, scrape /metrics, SIGTERM-drain
# (must exit 0 and checkpoint), then resume a fresh daemon from the
# checkpoint and drain it again (exit 0) — the resumed audit stream
# must be byte-identical to the first run's, which is the replay
# determinism pin on the real binaries. Each drain must
# remove its op-journal spool (drain.ckpt.ops). A third daemon resumes,
# takes 200 requests and is SIGKILLed: the checkpoint it resumed from must
# be untouched, and a fourth daemon must resume from it, drain (exit 0)
# and leave it byte-identical.
serve-smoke:
	$(GO) test -race -run 'TestAdmit|TestQuota|TestShed|TestOverload|TestDrain|TestResume|TestNoGoroutineLeak|TestServeModel' \
		./internal/serve/
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/admissiond ./cmd/admissiond; \
	$(GO) build -o $$tmp/admitload ./cmd/admitload; \
	$$tmp/admissiond -addr 127.0.0.1:0 -nodes 16 -time-scale 0 \
		-audit $$tmp/audit1.jsonl -checkpoint $$tmp/drain.ckpt \
		> $$tmp/daemon1.out 2>&1 & pid=$$!; \
	for i in $$(seq 100); do grep -q 'listening on' $$tmp/daemon1.out 2>/dev/null && break; sleep 0.1; done; \
	url=$$(sed -n 's/^admissiond: listening on //p' $$tmp/daemon1.out); \
	[ -n "$$url" ] || { echo "serve-smoke: daemon never listened"; cat $$tmp/daemon1.out; exit 1; }; \
	$$tmp/admitload -url $$url -jobs 1000 -concurrency 8 -virtual -adf 0.05; \
	$$tmp/admitload -url $$url -scrape /metrics > $$tmp/metrics.prom; \
	grep -q '^serve_requests_total 1000$$' $$tmp/metrics.prom \
		|| { echo "serve-smoke: metrics scrape missing the 1000-request count"; exit 1; }; \
	grep -q '^serve_admission_latency_seconds_count ' $$tmp/metrics.prom \
		|| { echo "serve-smoke: metrics scrape missing the latency histogram"; exit 1; }; \
	grep -q '^serve_shed_level 0$$' $$tmp/metrics.prom \
		|| { echo "serve-smoke: shed ladder not at level 0 after the flood"; exit 1; }; \
	kill -TERM $$pid; \
	code=0; wait $$pid || code=$$?; \
	[ $$code -eq 0 ] || { echo "serve-smoke: drained daemon exit code $$code, want 0"; cat $$tmp/daemon1.out; exit 1; }; \
	[ -s $$tmp/drain.ckpt ] || { echo "serve-smoke: no drain checkpoint"; exit 1; }; \
	[ ! -e $$tmp/drain.ckpt.ops ] || { echo "serve-smoke: drain left its op-journal spool behind"; exit 1; }; \
	$$tmp/admissiond -addr 127.0.0.1:0 -nodes 16 -time-scale 0 \
		-audit $$tmp/audit2.jsonl -checkpoint $$tmp/drain.ckpt -resume \
		> $$tmp/daemon2.out 2>&1 & pid=$$!; \
	for i in $$(seq 100); do grep -q 'listening on' $$tmp/daemon2.out 2>/dev/null && break; sleep 0.1; done; \
	kill -TERM $$pid; \
	code=0; wait $$pid || code=$$?; \
	[ $$code -eq 0 ] || { echo "serve-smoke: resumed daemon exit code $$code, want 0"; cat $$tmp/daemon2.out; exit 1; }; \
	cmp $$tmp/audit1.jsonl $$tmp/audit2.jsonl \
		|| { echo "serve-smoke: resumed audit stream differs from the original"; exit 1; }; \
	cp $$tmp/drain.ckpt $$tmp/drain.copy; \
	$$tmp/admissiond -addr 127.0.0.1:0 -nodes 16 -time-scale 0 \
		-checkpoint $$tmp/drain.ckpt -resume > $$tmp/daemon3.out 2>&1 & pid=$$!; \
	for i in $$(seq 100); do grep -q 'listening on' $$tmp/daemon3.out 2>/dev/null && break; sleep 0.1; done; \
	url=$$(sed -n 's/^admissiond: listening on //p' $$tmp/daemon3.out); \
	[ -n "$$url" ] || { echo "serve-smoke: resumed daemon never listened"; cat $$tmp/daemon3.out; exit 1; }; \
	$$tmp/admitload -url $$url -jobs 200 -concurrency 8 -virtual -adf 0.05 -t-offset 1000000 > /dev/null; \
	kill -KILL $$pid; wait $$pid || true; \
	cmp $$tmp/drain.ckpt $$tmp/drain.copy \
		|| { echo "serve-smoke: a killed daemon changed the checkpoint it resumed from"; exit 1; }; \
	$$tmp/admissiond -addr 127.0.0.1:0 -nodes 16 -time-scale 0 \
		-checkpoint $$tmp/drain.ckpt -resume > $$tmp/daemon4.out 2>&1 & pid=$$!; \
	for i in $$(seq 100); do grep -q 'listening on' $$tmp/daemon4.out 2>/dev/null && break; sleep 0.1; done; \
	kill -TERM $$pid; \
	code=0; wait $$pid || code=$$?; \
	[ $$code -eq 0 ] || { echo "serve-smoke: daemon resumed after a kill exit code $$code, want 0"; cat $$tmp/daemon4.out; exit 1; }; \
	cmp $$tmp/drain.ckpt $$tmp/drain.copy \
		|| { echo "serve-smoke: resume → drain with no new ops changed the checkpoint"; exit 1; }; \
	[ ! -e $$tmp/drain.ckpt.ops ] || { echo "serve-smoke: drain after a kill left the stale spool behind"; exit 1; }; \
	echo "serve-smoke: ok"

# spans-smoke proves serving-path request tracing end to end: race-run
# the span/debug/tenant-metric test suites, then boot admissiond with
# -spans over the durable pipeline, flood 1k deterministic
# virtual-time requests, scrape /debug/spans and /metrics, and run
# servetrace with the 95% stage-coverage gate plus a validated Chrome
# export. A second daemon replays the identical load with spans OFF and
# the two audit streams (and WALs) must be byte-identical — tracing is
# a read-only tap on the real binaries too. -concurrency 1 keeps the
# request order (and so the decision sequence) deterministic.
spans-smoke:
	$(GO) test -race -run 'TestSpan|TestDebug|TestTenant|TestShedTransition|TestRecorder|TestNilRecorder|TestWire|TestStageNames' \
		./internal/serve/ ./internal/obs/span/
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/admissiond ./cmd/admissiond; \
	$(GO) build -o $$tmp/admitload ./cmd/admitload; \
	$(GO) build -o $$tmp/servetrace ./cmd/servetrace; \
	$(GO) build -o $$tmp/tracedump ./cmd/tracedump; \
	for spans in on off; do \
		sarg=""; [ $$spans = on ] && sarg="-spans"; \
		$$tmp/admissiond -addr 127.0.0.1:0 -nodes 16 -time-scale 0 \
			-durable $$tmp/wal_$$spans -audit $$tmp/audit_$$spans.jsonl $$sarg \
			> $$tmp/daemon_$$spans.out 2> $$tmp/daemon_$$spans.err & pid=$$!; \
		for i in $$(seq 100); do grep -q 'listening on' $$tmp/daemon_$$spans.out 2>/dev/null && break; sleep 0.1; done; \
		url=$$(sed -n 's/^admissiond: listening on //p' $$tmp/daemon_$$spans.out); \
		[ -n "$$url" ] || { echo "spans-smoke: daemon ($$spans) never listened"; cat $$tmp/daemon_$$spans.out; exit 1; }; \
		$$tmp/admitload -url $$url -jobs 1000 -concurrency 1 -virtual -adf 0.05 > $$tmp/load_$$spans.txt; \
		if [ $$spans = on ]; then \
			$$tmp/admitload -url $$url -scrape '/debug/spans?n=1024' > $$tmp/spans.json; \
			$$tmp/admitload -url $$url -scrape /metrics > $$tmp/metrics.prom; \
		fi; \
		kill -TERM $$pid; \
		code=0; wait $$pid || code=$$?; \
		[ $$code -eq 0 ] || { echo "spans-smoke: daemon ($$spans) exit code $$code, want 0"; cat $$tmp/daemon_$$spans.out; exit 1; }; \
	done; \
	grep -q '^serve_spans_recorded_total ' $$tmp/metrics.prom \
		|| { echo "spans-smoke: metrics missing the span counter"; exit 1; }; \
	grep -q '^serve_stage_commit_seconds_count ' $$tmp/metrics.prom \
		|| { echo "spans-smoke: metrics missing the commit-stage histogram"; exit 1; }; \
	grep -q 'serve_tenant_admits_total{tenant="tenant-0"}' $$tmp/metrics.prom \
		|| { echo "spans-smoke: metrics missing per-tenant counters"; exit 1; }; \
	grep -q '^serve_shed_level ' $$tmp/metrics.prom \
		|| { echo "spans-smoke: metrics missing the shed-level gauge"; exit 1; }; \
	$$tmp/servetrace -min-coverage 0.95 -chrome $$tmp/pipeline.json $$tmp/spans.json; \
	$$tmp/tracedump -chrome $$tmp/pipeline.json; \
	cmp $$tmp/audit_on.jsonl $$tmp/audit_off.jsonl \
		|| { echo "spans-smoke: audit stream differs between spans on and off"; exit 1; }; \
	cat $$tmp/wal_on/*.wal > $$tmp/wal_on.cat; cat $$tmp/wal_off/*.wal > $$tmp/wal_off.cat; \
	cmp $$tmp/wal_on.cat $$tmp/wal_off.cat \
		|| { echo "spans-smoke: WAL bytes differ between spans on and off"; exit 1; }; \
	echo "spans-smoke: ok"

# crash-smoke proves crash-consistent durability end to end: race-run
# the WAL, checkpoint and durable-serve test suites, then build the real
# binaries and let crashfuzz SIGKILL admissiond mid-flood five times
# (seeded), restarting with -resume each time and asserting that no
# acknowledged admission is lost, no sequence is reused, the audit
# stream is prefix-consistent across every crash, and the serve_wal_*
# metrics are live — finishing with a graceful SIGTERM drain. Every
# SIGKILL lands with the pipelined committer's fsync in flight.
crash-smoke:
	$(GO) test -race -run 'TestWAL|TestCheckpoint|TestDurable|TestJournal|TestReadFile' \
		./internal/wal/ ./internal/checkpoint/ ./internal/serve/
	$(GO) test ./cmd/crashfuzz/
	@set -e; \
	tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -o $$tmp/admissiond ./cmd/admissiond; \
	$(GO) build -o $$tmp/admitload ./cmd/admitload; \
	$(GO) build -o $$tmp/crashfuzz ./cmd/crashfuzz; \
	$$tmp/crashfuzz -admissiond $$tmp/admissiond -admitload $$tmp/admitload \
		-cycles 5 -seed 7 -dir $$tmp/fuzz; \
	echo "crash-smoke: ok"

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/tracereplay
	$(GO) run ./examples/riskpolicy
	$(GO) run ./examples/capacityplan
	$(GO) run ./examples/riskmonitor
	$(GO) run ./examples/sitestudy

clean:
	$(GO) clean ./...
