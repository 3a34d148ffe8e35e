# Convenience targets; everything is plain `go` underneath.

GO ?= go

.PHONY: build test test-race race vet allocgate bce-check bce-baseline bench-json suite suite-obs suite-trace schedule-check instrument-check tables clean

build:
	$(GO) build ./...

# Tier-1 path: vet (with the gofmt check) + full test suite.
test: vet
	$(GO) test ./...

# go vet, then gofmt over every tracked .go file: any file it lists
# fails the target.
vet:
	$(GO) vet ./...
	@files=$$(git ls-files '*.go') && unformatted=$$(gofmt -l $$files) && \
	if [ -n "$$unformatted" ]; then echo "gofmt needed:"; echo "$$unformatted"; exit 1; fi

# Allocation gate: steady-state allocations per benchmark iteration of
# every internal/suite row at class S under every loop schedule, with no
# instrument and with all of them (probe, tracer under a running Go
# execution tracer, concurrent timers), and at class W under the static
# schedule, measured with testing.AllocsPerRun and
# asserted against the one checked-in allocgate.Budget (zero). The
# class-W gates run full-size iterations; drop them with GOFLAGS=-short.
# To find where a failing key allocates, see DESIGN.md §13.
allocgate:
	$(GO) test -run 'TestGate' -v ./internal/allocgate

# Bounds-check discipline for the solver inner loops: count the bounds
# checks the compiler could not eliminate (go build
# -gcflags=-d=ssa/check_bce) per file of the eight benchmark packages,
# their shared core and the generator, and compare with the committed
# bce_baseline.txt ("file count" lines). A file with more checks than
# its baseline fails; after removing checks, lock the improvement in
# with bce-baseline. The counts belong to the Go toolchain that produced
# them: regenerate the baseline when the toolchain changes. The build
# cache replays compiler diagnostics, so repeated runs are fast. Only
# the checks in the packages' own files count: a standard-library
# generic instantiated in one of them (slices.SortStableFunc, say) is
# reported at its file under GOROOT, which is neither this repository's
# code nor the same path on another machine.
BCE_PKGS := ./internal/bt ./internal/lu ./internal/sp ./internal/nscore ./internal/randdp ./internal/ep ./internal/cg ./internal/mg ./internal/ft ./internal/is ./internal/simd
empty :=
space := $(empty) $(empty)
BCE_FILES := ($(subst $(space),|,$(patsubst ./%,%,$(BCE_PKGS))))/[^/]*\.go
BCE_REPORT = $(GO) build -gcflags=-d=ssa/check_bce $(BCE_PKGS) 2>&1 \
	| grep -E 'Found Is(Slice)?InBounds' | cut -d: -f1 | grep -Ex '$(BCE_FILES)' | sort | uniq -c | awk '{print $$2, $$1}'

bce-check:
	@$(GO) build $(BCE_PKGS)
	@$(BCE_REPORT) | awk ' \
		NR == FNR { base[$$1] = $$2; next } \
		$$2 > base[$$1] + 0 { printf "bce-check: MORE BOUNDS CHECKS %s: %d, baseline %d\n", $$1, $$2, base[$$1]; bad = 1 } \
		$$2 < base[$$1] + 0 { printf "bce-check: improved: %s: %d, baseline %d; refresh with make bce-baseline\n", $$1, $$2, base[$$1] } \
		{ total += $$2 } \
		END { if (bad) exit 1; printf "bce-check: %d bounds checks, none above bce_baseline.txt\n", total }' \
		bce_baseline.txt -

bce-baseline:
	$(GO) build $(BCE_PKGS)
	$(BCE_REPORT) > bce_baseline.txt

# Race detection on short classes; the robustness-critical packages,
# the kernels whose regions carry their own barriers and pipeline waits
# (lu, cg, nscore) and the two other line-solve codes (sp, bt) get a
# full -race pass as well.
race:
	$(GO) test -race -short ./...
	$(GO) test -race ./internal/team ./internal/lu ./internal/cg ./internal/nscore ./internal/sp ./internal/bt ./internal/harness ./internal/fault ./internal/timer

test-race: race

# Regenerate the paper's tables for this host (class W keeps the
# pseudo-applications to seconds-to-minutes; use CLASS=A for paper scale).
CLASS ?= W
THREADS ?= 1,2,4
suite:
	$(GO) run ./cmd/npbsuite -class $(CLASS) -threads $(THREADS)

# Every instrument writes under $(INSTDIR): trace files and pprof files.
INSTDIR ?= instruments

# Suite sweep with the obs instrument on: metrics summary table, and
# the per-cell obs data in a bench record, $(INSTDIR)/BENCH_<stamp>.json.
suite-obs:
	$(GO) run ./cmd/npbsuite -class $(CLASS) -threads $(THREADS) -instrument obs -instrument-dir $(INSTDIR) -bench-json $(INSTDIR)/

# Suite sweep with the execution tracer on: one Go execution trace per
# cell in $(INSTDIR), <BENCH>.<class>.<cell>.trace. Open any of them with
# go tool trace; npbperf trace summary prints each worker's busy and
# wait time, and make instrument-check validates them.
suite-trace:
	$(GO) run ./cmd/npbsuite -class $(CLASS) -threads $(THREADS) -instrument trace -instrument-dir $(INSTDIR)
	$(GO) run ./cmd/npbperf trace validate $(INSTDIR)/*.trace

# Machine-readable sweep record: one stamped BENCH_<stamp>.json per
# sweep accumulates under $(RESULTS), each cell appended as it finishes
# (npbsuite -resume finishes an interrupted one), read by npbperf
# scaling and hotspots.
RESULTS ?= results
bench-json:
	$(GO) run ./cmd/npbsuite -class $(CLASS) -threads $(THREADS) -bench-json $(RESULTS)/

# Schedule smoke: every loop schedule sweeps CG+IS class S under the
# race detector, then a CG class-W sweep under the static schedule must
# come out of npbperf scaling without the §5.2 load-imbalance flag. The
# CI schedule-matrix job runs the same steps, one schedule per matrix
# leg.
SCHEDULES ?= static dynamic
schedule-check:
	for s in $(SCHEDULES); do \
		$(GO) run -race ./cmd/npbsuite -class S -bench CG,IS -threads 2,4 -schedule $$s -instrument obs -instrument-dir $(INSTDIR)/sched || exit 1; \
	done
	$(GO) run ./cmd/npbsuite -class W -bench CG -threads 1,2,4 -schedule static -repeats 2 -instrument obs -instrument-dir $(INSTDIR)/sched -bench-json sched-static.json
	$(GO) run ./cmd/npbperf scaling -fail-on load-imbalance sched-static.json

# Instrument smoke: one IS+CG+LU class-S sweep with all three
# instruments (obs, trace, profile) on, which must verify every cell,
# then the checks of the two that write files.
#   - trace: every execution trace validates through go tool trace
#     -d=parsed (spans paired and nested, times monotonic per
#     goroutine, every annotation inside the run's task).
#   - profile: a CG class-W sweep must attribute at least
#     $(PROFILE_MINATTR)% of its CPU samples to symbolized
#     npbgo/internal/... code, so "which kernel is the time in" stays
#     answerable.
# The CI instrument-smoke job runs exactly this and keeps $(INSTDIR).
PROFILE_MINATTR ?= 80
instrument-check:
	$(GO) run ./cmd/npbsuite -class S -threads 2 -bench IS,CG,LU -instrument obs,trace,profile -instrument-dir $(INSTDIR)/all -bench-json $(INSTDIR)/all.json
	$(GO) run ./cmd/npbperf trace validate $(INSTDIR)/all/*.trace
	$(GO) run ./cmd/npbsuite -class W -bench CG -threads 2 -instrument profile -instrument-dir $(INSTDIR)/w -bench-json $(INSTDIR)/w.json
	$(GO) run ./cmd/npbperf hotspots -require -min-attr $(PROFILE_MINATTR) $(INSTDIR)/w.json

# Every paper table through npbsuite (internal/suite's Paper entries):
# Table 1's five operations on the 81x81x100 grid (class A), serial and
# across $(THREADS); Table 0's nested forms and Table 7's LU at classes
# A, B and C, serial; then Tables 2-6 at $(CLASS).
TABLE1 := ASSIGN,STENCIL1,STENCIL2,MATVEC,REDSUM
TABLE0 := ASSIGN_NESTED,STENCIL1_NESTED,STENCIL2_NESTED,MATVEC_NESTED,REDSUM_NESTED
tables:
	$(GO) run ./cmd/npbsuite -class A -bench $(TABLE1) -threads $(THREADS)
	$(GO) run ./cmd/npbsuite -class A -bench $(TABLE0) -threads 1
	for c in A B C; do $(GO) run ./cmd/npbsuite -class $$c -bench LUFACT,DGETRF -threads 1 || exit 1; done
	$(GO) run ./cmd/npbsuite -class $(CLASS) -threads $(THREADS)

clean:
	$(GO) clean ./...
	rm -rf $(INSTDIR)
	rm -f sched-static.json
