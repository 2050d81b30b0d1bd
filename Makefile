GO ?= go

.PHONY: build test race vet bench lint examples cover chaos xproc overload loc loc-gate

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

# Overload doctrine tests under the race detector: deadline shedding,
# admission, the retry budget, open-loop goodput far past capacity,
# payload arena exhaustion and the SIGKILL-a-client-mid-overload cell —
# the same step as the CI overload-smoke job (DESIGN.md §14).
overload:
	$(GO) test -race -count=1 -run 'OpenLoop|Overload|Shed|Admission|Backoff|RetryBudget|StillFailsExhaustion' ./internal/...

# Cross-process smoke, runnable locally: the futex wait/wake model
# check, the cross-process and payload tests at GOMAXPROCS 1, 2 and 4
# (two real processes exchanging messages through a memfd arena, header
# only and with 1KiB copy/zero-copy payloads), then the
# SIGKILL-the-server chaos cells — header-only and mid-lease — the same
# sequence as the CI cross-process-smoke job. See DESIGN.md §12, §13.
# Override the seed with SEED=n.
xproc:
	$(GO) test -run TestFutex ./internal/protomodel/
	$(GO) test -race -count=2 -cpu 1,2,4 -run 'Proc|Payload' ./internal/livebind ./internal/core ./internal/workload .
	$(GO) run -race ./cmd/ipcbench -proc -chaos -seed $(SEED) -paysize 0,1024

# Non-test Go line counts (wc -l) per package directory, then the
# livebind+queue sum and the total: the count behind every line gate
# in ROADMAP.md.
loc:
	@total=0; for d in $$(find . -name '*.go' ! -name '*_test.go' -exec dirname {} \; | sort -u); do \
		n=$$(find $$d -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
		printf '%7d  %s\n' $$n $$d; total=$$((total + n)); \
	done; \
	lq=$$(find internal/livebind internal/queue -maxdepth 1 -name '*.go' ! -name '*_test.go' -exec cat {} + | wc -l); \
	printf '%7d  livebind+queue\n%7d  total\n' $$lq $$total

# Line budget: fails when a count make loc prints exceeds its budget in
# .github/loc-budget ("<name> <lines>" per line, names as make loc
# prints them), as the CI lint job does. A change that shrinks the code
# lowers its budget; no change raises one.
loc-gate:
	@$(MAKE) -s --no-print-directory loc | awk ' \
		NR == FNR { budget[$$1] = $$2; next } \
		$$2 in budget { seen[$$2] = 1; printf "%7d  %s (budget %d)\n", $$1, $$2, budget[$$2]; \
			if ($$1 > budget[$$2]) { print "  over budget"; bad = 1 } } \
		END { for (k in budget) if (!(k in seen)) { print "no count for " k; bad = 1 }; exit bad }' \
		.github/loc-budget -
