GO ?= go

.PHONY: build test race vet bench bench-live lint examples cover bench-gate ab chaos xproc overload

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

bench:
	$(GO) test -bench . -benchmem

# Regenerate the live wall-clock benchmark document. One run per cell of
# {queue configuration} x {protocol} x {1,4,16 clients}, then the
# server-group scale-out sweep: {2,4,8 shards} x {16,64,256 clients},
# then the zero-copy payload sweep (0/64/1K/4K bytes, each non-zero size
# as an interleaved copy vs lease-transfer pair with a bytes/s column),
# then the cross-process sweep (each xproc cell preceded by its
# in-process xproc-base twin, plus the payload pairs cross-process),
# each group of cells interleaved with its baseline on the same machine
# state (DESIGN.md §6, §10, §12, §13).
# -watchdog 0 keeps the recorded trajectory on the legacy (error-less)
# send path so successive BENCH_live.json snapshots stay comparable;
# payload cells run context-threaded and get a watchdog regardless.
bench-live:
	$(GO) run ./cmd/ipcbench -live -proc -watchdog 0 -best 3 -shards 2,4,8 -paysize 0,64,1024,4096 -json -o BENCH_live.json
	@echo wrote BENCH_live.json

# Same linters as the CI lint job (.golangci.yml). Needs golangci-lint
# on PATH; CI installs it via golangci/golangci-lint-action.
lint:
	golangci-lint run ./...

# Run every example program to completion, each capped at 30 s so a
# hang fails instead of blocking (the CI examples job).
examples:
	@for d in examples/*/; do \
		echo "== $$d"; \
		timeout 30 $(GO) run ./$$d > /dev/null || { echo "$$d failed or timed out"; exit 1; }; \
	done

# Statement coverage over the library packages, gated on the committed
# floor (.github/coverage-floor) exactly as the CI coverage job does.
# -coverpkg credits each package with the statements every package's
# tests execute, not only its own tests.
cover:
	$(GO) test -coverpkg=./internal/... -coverprofile=coverage.out ./internal/...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	floor=$$(cat .github/coverage-floor); \
	echo "total statement coverage: $$total% (floor: $$floor%)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { exit !(t+0 >= f+0) }' || \
		{ echo "coverage $$total% fell below the committed floor $$floor%"; exit 1; }

# The PR bench gate, runnable locally: a short BSS/BSLS/BSA subset plus
# one sharded cell (4 clients x 2 shards with its interleaved baseline)
# and one payload pair (1KiB copy vs zero-copy, gated on bytes/s),
# three runs, each cell's fastest sample compared against the committed
# BENCH_live.json (warn >10%, fail >25%).
bench-gate:
	for i in 1 2 3; do \
		$(GO) run ./cmd/ipcbench -live -watchdog 0 -json -algs BSS,BSLS,BSA -clients 1 -shards 2 -shardclients 4 -paysize 1024 -msgs 1000 -o /tmp/bench_pr_$$i.json || exit 1; \
	done
	$(GO) run ./cmd/benchcmp -warn 10 -fail 25 BENCH_live.json /tmp/bench_pr_1.json /tmp/bench_pr_2.json /tmp/bench_pr_3.json

# Observability overhead A/B: interleaved pairs of the BSLS/1-client
# cell with the hooks disabled and enabled, medians compared.
ab:
	$(GO) run ./cmd/ipcbench -live -ab 7 -algs BSLS -clients 1 -msgs 5000

# Chaos sweep: seeded fault injection (crashes in queue critical
# sections, dropped/duplicated/delayed wake-ups) across the protocol
# matrix — including the payload-leak cells, whose lease-conservation
# audit fails the cell if any arena block goes missing — plus the
# crash/recovery model check. Exits non-zero if any cell deadlocks,
# leaks pool refs or payload blocks, or misses a peer death — see
# DESIGN.md §9, §13. Override the seed with SEED=n.
SEED ?= 1
chaos:
	$(GO) run ./cmd/ipcrace -chaos
	$(GO) run ./cmd/ipcbench -chaos -seed $(SEED) -paysize 1024

# Overload doctrine sweep: the open-loop unit/chaos cells under the
# race detector (deadline shedding, admission, the SIGKILL-a-client-
# mid-overload cell), then the full open-loop overload sweep — per
# protocol a closed-loop capacity probe anchors open-loop cells at
# 0.5x/1x/2x that capacity, Poisson and bursty arrivals. The headline:
# at 2x the goodput column should hold near the 1x plateau while sheds
# and rejects absorb the excess (DESIGN.md §14). Override the seed with
# SEED=n.
overload:
	$(GO) test -race -count=1 -run 'OpenLoop|Overload|Shed|Admission|Backoff|RetryBudget|Circuit|CopyFallback' ./internal/...
	$(GO) run ./cmd/ipcbench -openloop -burst -seed $(SEED)

# Cross-process smoke, runnable locally: the futex wait/wake model
# check, two real processes exchanging messages through a memfd arena
# (in-process vs cross-process A/B, plus the 1KiB copy/zero-copy payload
# pair), then the SIGKILL-the-server chaos cells — header-only and
# mid-lease — the same sequence as the CI cross-process-smoke job. See
# DESIGN.md §12, §13. Override the seed with SEED=n.
xproc:
	$(GO) test -run TestFutex ./internal/protomodel/
	$(GO) test -race -count=2 -cpu 1,2,4 -run 'Proc|Payload' ./internal/livebind ./internal/core .
	$(GO) run -race ./cmd/ipcbench -proc -quick -msgs 500 -paysize 1024
	$(GO) run -race ./cmd/ipcbench -proc -chaos -seed $(SEED) -paysize 0,1024
