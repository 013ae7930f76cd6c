# Developer entry points.  `make ci` is the CI gate (see below).

.PHONY: all build fmt lint lint-fixtures test ci bench \
  bench-smoke bench-serve bench-lca bench-replication

all: build

build:
	dune build

fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  dune build @fmt; \
	else \
	  echo "fmt: ocamlformat not installed, skipping dune build @fmt"; \
	fi

# msparlint: the compiler-libs lint pass over the .cmt files of lib/
# bin/ bench/ test/ examples/ (see doc/LINTS.md; also wired into dune
# runtest via the @lint alias, which builds every .cmt first).  Every run
# prints per-phase timings to stderr and is held to its 30s budget.
lint:
	dune build @lint

# the lint engine's own fixture suite (rule true/false positives,
# suppression, scopes); every fixture is type-checked in memory
# against the stdlib, unix and the built mspar_prelude/mspar_graph
# interfaces, so it needs those libraries built (dune exec does that)
lint-fixtures:
	dune exec test/test_lint.exe

test:
	dune runtest

# the one-command CI gate: build, full test suite (includes the @lint
# alias, the mspar CLI runs in bin/dune, and the fault-injection, serve
# and .msgr-container smoke runs wired into dune runtest — the msgr legs
# at a small size; `make bench-smoke` is the same gate at ~1M edges),
# then the formatting check (when ocamlformat is installed — skipped
# with a notice otherwise, so the gate still runs on minimal toolchains)
ci:
	dune build
	dune runtest
	$(MAKE) fmt

bench:
	dune exec bench/main.exe -- --csv bench_csv

# .msgr container smoke at ~1M edges: save, mmap-reopen with checksum and
# audit cross-checks, and the O(1)-ish open assertion (same legs run at a
# small size on every `dune runtest` / `make ci`)
bench-smoke:
	dune exec bench/main.exe -- --csv bench_csv msgr-smoke

# full serve suite: the complete socket fault-injection sweep (hostile
# frames, pipelined windows, an unread window resent after reconnect,
# seeded kill -9 crash points k = 50, 200, 450 with bit-for-bit
# recovery, SIGTERM drain) against a forked `mspar serve` (smoke-size
# legs run on every `dune runtest` / `make ci`); serve throughput and
# latency are measured by perfbench's serve-write and serve-mixed
bench-serve:
	dune exec bench/main.exe -- --csv bench_csv serve-faults

# full replication suite: all five hot-standby legs at full op counts —
# kill -9 failover with Promote + client rediscovery, replica crash
# catch-up over the surviving dir, stale-epoch fencing, the
# slow-follower lag/backpressure leg, and a replica of a replica that
# must re-point at the primary — writing
# bench_csv/serve-replication.csv (the failover, fencing and redirect
# legs run at smoke size on every `dune runtest` / `make ci`)
bench-replication:
	dune exec bench/main.exe -- --csv bench_csv serve-replication

# full-size point-query oracle rows (100k vertices, ~5M edges): cold
# O(delta) probe gate, >=100x query-vs-build crossover, and the Zipfian
# warm-replay >=10x probe reduction, all asserted inline (a smoke-size
# leg with the same parity + probe gates runs on every `dune runtest`)
bench-lca:
	dune exec bench/main.exe -- --csv bench_csv lca-query
