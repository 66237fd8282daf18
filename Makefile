# Developer entry points.  `make check` is the pre-commit gate: the
# tier-1 test suite, a fast smoke pass over the paper-table benchmarks
# under benchmarks/ (their `-m 'not slow'` subset runs each
# micro-benchmark once without timing loops), the bench harness's
# correctness gate and the fixed-seed drills.  Coverage is collected
# when pytest-cov is installed and skipped silently otherwise — the
# toolchain image does not bake the plugin in, and the suite must not
# depend on it.

PY      := python
PYTEST  := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PY) -m pytest
HAS_COV := $(shell $(PY) -c "import pytest_cov" 2>/dev/null && echo 1)
COVOPTS := $(if $(HAS_COV),--cov=repro --cov-report=term-missing)

.PHONY: check test reference sanitize bench-smoke bench-check golden \
	serve-smoke chaos fleet-chaos ladder-smoke torture clean

check: test reference sanitize bench-smoke bench-check serve-smoke chaos \
	fleet-chaos ladder-smoke torture

test:
	$(PYTEST) -x -q $(COVOPTS)

# The NumPy reference on its own: the codec round trip (the per-block
# loop's stream through the decoder) plus the native test file's
# REPRO_NATIVE=0 check, with kernels.c never compiled or loaded — the
# reference the tile driver is tested against must stand without it.
reference:
	REPRO_NATIVE=0 $(PYTEST) tests/test_native_kernels.py \
		tests/test_codec_roundtrip.py -q -p no:cacheprovider

# The tile driver under AddressSanitizer + UBSan: kernels.c is rebuilt
# with the sanitizer flags (a separate _build/ cache entry — the flags
# are part of the key) and the native-vs-NumPy differential tests run
# against it.  ASan must be the first runtime loaded, hence LD_PRELOAD;
# CPython "leaks" by design, so leak detection is off.  Without an ASan
# runtime the target says so and skips — it never passes silently, and
# a sanitizer build that fails to load fails the run (conftest).
ASAN_RT := $(shell cc -print-file-name=libasan.so 2>/dev/null)
SANFLAGS := -fsanitize=address,undefined -fno-sanitize-recover=undefined \
	-fno-omit-frame-pointer -g

# Then the frame split under ThreadSanitizer: kernels.c rebuilt with
# -fsanitize=thread, and the tests where helper threads run a frame's
# tiles — the split differentials, callers racing for the helpers, the
# pinned and the forked process.  The runtime is preloaded into the
# interpreter binary itself (a shell wrapper such as a pyenv shim may
# not start under it); a child that forks from a threaded parent and
# starts helpers needs die_after_fork=0; the first report fails the
# run.  Without a runtime that loads, the pass says so and skips.
TSAN_RT := $(shell cc -print-file-name=libtsan.so 2>/dev/null)
PYEXE := $(shell $(PY) -c "import sys; print(sys.executable)" 2>/dev/null)

sanitize:
	@if [ -f "$(ASAN_RT)" ]; then \
		LD_PRELOAD=$(ASAN_RT) ASAN_OPTIONS=detect_leaks=0 \
		$(PYTEST) tests/test_native_kernels.py -q -p no:cacheprovider \
			--capture=sys \
			--native-cflags="$(SANFLAGS)"; \
	else \
		echo "sanitize: SKIPPED - no ASan runtime (cc -print-file-name=libasan.so)"; \
	fi
	@if [ ! -f "$(TSAN_RT)" ]; then \
		echo "sanitize: SKIPPED - no TSan runtime (cc -print-file-name=libtsan.so)"; \
	elif ! LD_PRELOAD=$(TSAN_RT) $(PYEXE) -c pass 2>/dev/null; then \
		echo "sanitize: SKIPPED - the TSan runtime does not load into $(PYEXE)"; \
	else \
		LD_PRELOAD=$(TSAN_RT) TSAN_OPTIONS="die_after_fork=0 halt_on_error=1" \
		PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH)) $(PYEXE) -m pytest \
			tests/test_native_kernels.py tests/test_pipeline.py \
			-k "split or pinned or forked or concurrent" \
			-q -p no:cacheprovider --capture=sys \
			--native-cflags="-fsanitize=thread -g"; \
	fi

bench-smoke:
	$(PYTEST) benchmarks -q -p no:cacheprovider --override-ini="addopts=" \
		-m "not slow" --co -q >/dev/null
	$(PYTEST) benchmarks/test_micro.py -q --override-ini="addopts=" \
		-m "not slow" --benchmark-disable

# The one bench harness (bench/run.py, see bench/README.md) checked for
# correctness, not speed: its self-tests, then a short run of the
# cheapest workload, of the paper's operating point, of the one
# workload where two journaled VGA sessions share the journal writer
# thread (its two-session reference match runs nowhere else) and of
# the three-rung ladder (every session takes one handshake and one
# encoder; its three-rung reference match is the independent oracle
# for the multi-rung side of that shared path), each against a live
# serve-net child.  A run fails unless every frame got
# exactly one outcome, STATS agree with the client's tally and the
# first two GOPs are bit-equal to the in-process reference.  No
# throughput floor and no committed baseline: to compare two commits,
# write `--out` on each and run
# `python3 bench/run.py compare A.json B.json`.
bench-check:
	$(PYTEST) bench/tests -q
	python3 bench/run.py --workload small_churn --seed 1 --seconds 3 --trace 0
	python3 bench/run.py --workload vga_rt1 --seed 1 --seconds 3 --trace 0
	python3 bench/run.py --workload vga_duo --seed 1 --seconds 3 --trace 0
	python3 bench/run.py --workload vga_ladder --seed 1 --seconds 3 --trace 0

# Regenerate the golden trace after an intentional instrumentation change.
golden:
	$(PYTEST) tests/test_golden_trace.py -q --update-golden

# End-to-end gate for the network serving layer: ephemeral port, a few
# short loadgen sessions, fails on any protocol error or an empty
# serving-metrics snapshot.
serve-smoke:
	PYTHONPATH=src $(PY) -m repro.serving.smoke

# Fixed-seed chaos drill: journaled server behind the chaos proxy, a
# deterministic mid-stream cut, fault-tolerant clients; fails unless
# the severed session RESUMEs and every frame outcome is delivered.
chaos:
	PYTHONPATH=src $(PY) -m repro.serving.chaos_smoke

# Fixed-seed fleet failover drill: SIGKILL one of two workers
# mid-stream; fails unless the dead worker's sessions are adopted by
# the survivor, delivery is bit-identical to an uninterrupted
# reference pass, and the supervisor restarts the dead slot.
fleet-chaos:
	PYTHONPATH=src $(PY) -m repro.serving.fleet_smoke

# Fixed-seed rendition-ladder drill: encodes one stream into a 3-rung
# ladder, checks GOP-aligned segments + manifest, per-rung bit-identity
# with independent sessions, and the golden per-rung digests.  After an
# intentional codec change: `make ladder-smoke UPDATE=--update-golden`.
ladder-smoke:
	PYTHONPATH=src $(PY) -m repro.ladder.smoke $(UPDATE)

# Fixed-seed crash-consistency torture drill: records every durable
# mutation of a pinned serving drill, checks the write-point digest
# against tests/golden/torture_points.json, simulates a crash (and a
# torn write) at every recorded point asserting each prefix restores
# bit-identically or fails with a typed StorageError (and that the
# torn variants of the gop appends cut both a header and a plane
# blob), then runs a live ENOSPC durability-brownout drill.  After an
# intentional change to the set of durable write paths:
# `make torture UPDATE=--update-golden`.
torture:
	PYTHONPATH=src $(PY) -m repro.storage.torture $(UPDATE)

clean:
	rm -rf .pytest_cache .hypothesis metrics.json trace.jsonl
	find . -name __pycache__ -type d -prune -exec rm -rf {} +
