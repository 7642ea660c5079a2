#!/usr/bin/env bash
# Full local CI gate: formatting, lints, build, tests, and a bounded
# smoke run of the telemetry binary. Run from the repository root:
#
#   ./scripts/ci.sh
#
# Everything is offline (vendored dev-dependencies) and deterministic.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy (workspace, all targets, warnings are errors)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> rotind-lint --self-check (the linter gates its own crate first)"
cargo run -q -p rotind-lint -- --self-check

echo "==> rotind-lint (project rules, ratcheted against lint-baseline.json)"
# In SARIF mode the document goes to stdout and the gate verdict to
# stderr, so results/lint.sarif is a clean artifact and set -e still
# fails the script on any new finding.
mkdir -p results
cargo run -q -p rotind-lint -- --format sarif > results/lint.sarif
python3 - <<'PY'
import json
doc = json.load(open("results/lint.sarif"))
assert doc["version"] == "2.1.0", doc["version"]
run = doc["runs"][0]
declared = {r["id"] for r in run["tool"]["driver"]["rules"]}
results = run["results"]
for r in results:
    assert r["ruleId"] in declared, f"undeclared rule {r['ruleId']}"
    loc = r["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] and loc["region"]["startLine"] >= 1
print(f"results/lint.sarif: SARIF {doc['version']}, {len(declared)} rule(s), "
      f"{len(results)} result(s)")
PY

echo "==> availability certification (panic-freedom + blocking hazards on the serve roots)"
# The seeded fixture violations must fail the gate with composed
# multi-file codeFlow witnesses; the burned-down twins must certify
# clean. Exit codes are the contract, so each leg is asserted explicitly.
FIXTURES=crates/rotind-lint/tests/fixtures
AVAIL_SARIF="$(mktemp)"
for pair in no_panic_reachable_bad:no-panic-reachable \
            no_blocking_in_worker_bad:no-blocking-in-worker; do
    dir="${pair%%:*}" rule="${pair##*:}"
    if cargo run -q -p rotind-lint -- --format sarif "$FIXTURES/$dir" \
        > "$AVAIL_SARIF" 2>/dev/null; then
        echo "$dir: seeded violation did not fail the gate" >&2
        exit 1
    fi
    python3 - "$AVAIL_SARIF" "$rule" <<'PY'
import json, sys
doc = json.load(open(sys.argv[1]))
rule = sys.argv[2]
hits = [r for r in doc["runs"][0]["results"] if r["ruleId"] == rule]
assert hits, f"no {rule} results in fixture SARIF"
files = {s["location"]["physicalLocation"]["artifactLocation"]["uri"]
         for r in hits for cf in r.get("codeFlows", [])
         for tf in cf["threadFlows"] for s in tf["locations"]}
assert len(files) >= 2, f"{rule} witness does not span files: {files}"
print(f"{rule}: seeded finding witnessed across "
      f"{sorted(f.rsplit('/', 1)[-1] for f in files)}")
PY
done
rm -f "$AVAIL_SARIF"
for dir in no_panic_reachable_good no_blocking_in_worker_good; do
    cargo run -q -p rotind-lint -- "$FIXTURES/$dir" >/dev/null
    echo "$dir: certifies clean"
done

echo "==> baseline schema migration self-test (v1-v3 files still parse, v4 round-trips)"
cargo test -q -p rotind-lint --lib baseline:: >/dev/null
echo "baseline v1..v4 migrations: PASS"

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test (workspace)"
cargo test --workspace -q

echo "==> loom model tests (CAS-min best-so-far + SharedBudget, vendored scheduler)"
cargo test -q -p rotind-index --features loom-tests --test loom_model

echo "==> miri smoke (rotind-obs atomics; skipped when miri is unavailable)"
# The offline container has no miri component; a real CI host with
# `rustup component add miri` runs the rotind-obs budget/atomic suites
# under the interpreter. The lane degrades to a loud skip, not a fail.
if cargo miri --version >/dev/null 2>&1; then
    MIRIFLAGS="${MIRIFLAGS:--Zmiri-strict-provenance}" \
        cargo miri test -p rotind-obs
else
    echo "cargo miri not installed; skipping (offline container)"
fi

echo "==> exactness + parallel suites under ROTIND_THREADS=1"
ROTIND_THREADS=1 cargo test -q --test exactness --test parallel

echo "==> exactness + parallel suites under ROTIND_THREADS=4"
ROTIND_THREADS=4 cargo test -q --test exactness --test parallel

echo "==> profiling suite under ROTIND_THREADS=4"
ROTIND_THREADS=4 cargo test -q --test profiling

echo "==> std::simd kernel lane (nightly only; skipped when nightly is unavailable)"
# The default chunked backend is bit-identical to the std::simd one and
# is already covered above, so on stable this lane degrades to a loud
# skip, not a fail. On nightly it re-runs the kernel identity suite,
# the end-to-end exactness suite (sequential and 4 threads), and the
# cascade suite with the simd engine selected.
if cargo +nightly --version >/dev/null 2>&1; then
    cargo +nightly test -q --features simd --test kernels_identity
    ROTIND_THREADS=1 cargo +nightly test -q --features simd --test exactness --test parallel
    ROTIND_THREADS=4 cargo +nightly test -q --features simd --test exactness --test parallel
    cargo +nightly test -q --features simd --test cascade
else
    echo "nightly toolchain not installed; skipping std::simd lane (chunked default is bit-identical)"
fi

# Smoke runs go to a throwaway dir: results/ is git-tracked with
# full-scale artifacts and a quick run would clobber them.
SMOKE="$(mktemp -d)"

echo "==> trace smoke run (chrome trace + folded stacks validated)"
ROTIND_QUICK=1 ROTIND_RESULTS="$SMOKE" \
    cargo run -p rotind-bench --release --bin trace >/dev/null
python3 - "$SMOKE" <<'PY'
import json, sys
doc = json.load(open(f"{sys.argv[1]}/trace_profile.json"))
n = len(doc["traceEvents"])
assert n > 0, "empty chrome trace"
print(f"trace_profile.json: chrome trace, {n} event(s)")
PY

echo "==> cascade ablation smoke run"
ROTIND_QUICK=1 ROTIND_RESULTS="$SMOKE" \
    cargo run -p rotind-bench --release --bin cascade >/dev/null

echo "==> figure drift (full-scale fig19 + fig20 regenerate the committed CSVs)"
# The figure binaries are deterministic (seeded data, step counts), so
# a committed CSV that no longer matches its binary's output is stale.
# Full scale, because results/ holds full-scale artifacts: about 20 s
# for fig19 and 95 s for fig20 on a 2-vCPU host.
for fig in fig19 fig20; do
    ROTIND_QUICK=0 ROTIND_RESULTS="$SMOKE" \
        cargo run -q -p rotind-bench --release --bin "$fig" >/dev/null
    diff "$SMOKE/$fig.csv" "results/$fig.csv"
    echo "$fig.csv: matches results/"
done

echo "==> kernel bench smoke run (seq vs chunked throughput, schema check)"
ROTIND_QUICK=1 ROTIND_RESULTS="$SMOKE" \
    cargo run -p rotind-bench --release --bin kernels >/dev/null
python3 - "$SMOKE" <<'PY'
import json, sys
doc = json.load(open(f"{sys.argv[1]}/bench_kernels.json"))
assert isinstance(doc["quick"], bool), doc
assert doc["lanes"] >= 2, doc
assert isinstance(doc["simd_compiled"], bool), doc
entries = doc["entries"]
assert entries, "no kernel bench entries"
cells = {}
for e in entries:
    for key in ("kernel", "n", "backend", "ns_per_call", "speedup_vs_scalar"):
        assert key in e, f"entry missing {key}: {e}"
    assert e["backend"] in ("seq", "chunked", "simd"), e
    assert e["ns_per_call"] > 0, e
    assert e["speedup_vs_scalar"] > 0, e
    cells.setdefault((e["kernel"], e["n"]), set()).add(e["backend"])
for (k, n), backends in cells.items():
    assert {"seq", "chunked"} <= backends, f"{k}@{n} missing a backend: {backends}"
# The tier-3 order build (seq = full sort, chunked = the prefix the
# cascade stores) is timed at every size.
for n in (64, 256, 1024):
    assert ("abandon_order", n) in cells, f"abandon_order@{n} missing"
print(f"bench_kernels.json: {len(entries)} cells over {len(cells)} kernel/size pairs")
PY

echo "==> serve smoke lane (start server, open-loop load, schema check)"
# The serve integration tests (bit-identical to the library path,
# backpressure, budget partials) already ran in the workspace suite;
# this lane exercises the real binary end to end: server start,
# open-loop load, clean shutdown (nonzero exit on any failure), and a
# schema-valid artifact.
ROTIND_QUICK=1 ROTIND_RESULTS="$SMOKE" \
    cargo run -p rotind-bench --release --bin serve_load >/dev/null
python3 - "$SMOKE" <<'PY'
import json, sys
doc = json.load(open(f"{sys.argv[1]}/bench_serve.json"))
workload = doc["workload"]
assert workload["mode"] == "open-loop", workload
for key in ("m", "n", "clients", "offered_per_second", "workers",
            "queue_depth", "batch", "seconds"):
    assert key in workload, f"workload missing {key}"
requests = doc["requests"]
for key in ("sent", "complete", "exhausted", "overloaded", "errors",
            "late", "per_second"):
    assert key in requests, f"requests missing {key}"
assert requests["sent"] > 0, "no requests completed"
assert requests["errors"] == 0, f"load run saw errors: {requests}"
latency = doc["latency_ms"]
for key in ("p50", "p95", "p99", "mean"):
    assert key in latency, f"latency_ms missing {key}"
assert 0 < latency["p50"] <= latency["p95"] <= latency["p99"], latency
server = doc["server"]
assert server["rotind_serve_requests_total"] >= requests["sent"]
print(f"bench_serve.json: {requests['sent']} requests, "
      f"p50 {latency['p50']} ms, p99 {latency['p99']} ms")
PY

echo "==> regression gate (steps vs results/bench_baseline.json)"
ROTIND_QUICK=1 \
    cargo run -p rotind-bench --release --bin regress -- \
    --baseline results/bench_baseline.json
echo "==> regression gate self-test (a 20% synthetic slowdown must fail)"
if ROTIND_QUICK=1 ROTIND_REGRESS_INJECT=1.2 \
    cargo run -q -p rotind-bench --release --bin regress -- \
    --baseline results/bench_baseline.json >/dev/null 2>&1; then
    echo "regress gate did NOT flag an injected 20% slowdown" >&2
    exit 1
fi

echo "==> benchmark package lane (.servebench tests + traced smoke runs)"
# The benchmark (see BENCHMARK.json) is a package of its own outside the
# workspace, so nothing above builds it: a change to any library API it
# calls would break the benchmark while this script stays green. Its
# build goes to target/servebench, so nothing is written under
# .servebench/. Each smoke run must exit 0 with every reply correct.
CARGO_TARGET_DIR=target/servebench \
    cargo test --release --offline --manifest-path .servebench/Cargo.toml
# The mix workload sends 1-NN, 3-NN and range queries under three
# invariances, so it covers every best-first and bound-filtered path;
# the DTW workload checks replies whose leaf is the band-major DTW.
# Each traced run's `traced: requests=… counts: …` line is a pure
# function of the seed, so the three are pinned in
# results/servebench_counts.txt: a kernel or scan change that moves a
# step or prune count fails here, and one that moves them by design
# commits the new lines.
BENCH_COUNTS="$SMOKE/servebench_counts.txt"
: > "$BENCH_COUNTS"
for workload in ed-rot-n251 serve-mix-n32 dtw-knn-n128; do
    BENCH_OUT="$(CARGO_TARGET_DIR=target/servebench \
        cargo run --quiet --release --offline --manifest-path .servebench/Cargo.toml -- \
        --workload "$workload" --seed 3 --seconds 1 --trace 1)"
    grep '^traced: requests=' <<<"$BENCH_OUT" >> "$BENCH_COUNTS"
    python3 - "$workload" "$(tail -n 1 <<<"$BENCH_OUT")" <<'PY'
import json, sys
workload, doc = sys.argv[1], json.loads(sys.argv[2])
assert doc["failed"] == 0, f"benchmark smoke run {workload}: {doc['failed']} wrong replies"
print(f"servebench smoke {workload}: {doc['attempted']} replies, 0 failed")
PY
done
diff "$BENCH_COUNTS" results/servebench_counts.txt
echo "servebench counts: match results/servebench_counts.txt"

echo "==> CI green"
