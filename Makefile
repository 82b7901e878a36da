.PHONY: all build test check bench-json model race bench-compare loc clean

all: build

build:
	dune build

test:
	dune runtest

# Build everything, run the test suite, and lint the example IDL.
check:
	dune build @check

# Quick benchmark run that writes machine-readable results to
# BENCH_results.json (the harness re-parses the file before exiting 0).
bench-json:
	dune exec bench/main.exe -- --quick --json BENCH_results.json

# Gate a fresh benchmark run against the committed baseline: any figure
# whose median cell-by-cell ratio regresses by more than 20% fails.
bench-compare:
	dune exec bench/main.exe -- --quick --json BENCH_new.json
	dune exec bin/iw_check.exe -- --bench-compare BENCH_results.json BENCH_new.json

# Exhaustively model-check the coherence protocol with crashes enabled
# (also part of `make check`, at 2 clients).
model:
	dune exec bin/iw_check.exe -- --model --crash

# Lock-discipline lint over lib/ and bin/ (LCK001-LCK004), warnings fatal.
race:
	dune exec bin/iw_check.exe -- --race --Werror lib bin

# .ml/.mli line totals per source tree; diff two checkouts' output to state a
# change's net line delta.
loc:
	@for d in lib bin bench test; do \
	  printf '%-6s %6d\n' $$d $$(find $$d -name '*.ml' -o -name '*.mli' | xargs cat | wc -l); \
	done

clean:
	dune clean
