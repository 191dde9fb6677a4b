#!/bin/sh
# bench.sh — run the kernel and attack benchmarks and record the numbers
# as a JSON snapshot, seeding the repo's performance trajectory.
#
# Usage:
#   scripts/bench.sh [output.json] [benchtime]
#
# Defaults: output BENCH_PR8.json in the repo root, -benchtime 100x (fixed
# iteration counts keep a run to a couple of minutes and make successive
# snapshots comparable; raise it on quiet machines for tighter numbers).
#
# The raw `go test -bench` output is also written next to the JSON as
# <output>.txt in benchstat-compatible format, so two snapshots can be
# compared with:
#   benchstat old.json.txt new.json.txt
# and gated with:
#   scripts/bench_gate.py old.json new.json
#
# Portability: this is POSIX sh (both Linux and macOS CI legs run it with
# their stock shells). No pipefail — `go test` writes straight to the raw
# file so its exit status is checked directly, not laundered through a
# pipe — and the timestamp uses only date(1) flags BSD and GNU share.
set -eu

cd "$(dirname "$0")/.."

OUT="${1:-BENCH_PR8.json}"
BENCHTIME="${2:-100x}"

# BenchmarkAttackUDR, BenchmarkClusterSweepJob and UDR's two halves in
# internal/asr (BenchmarkReconstruct: interval kernel plus rounds;
# BenchmarkReconstructPosterior: plus the posterior pass) have no entry
# in BENCH_PR8.json: bench_gate.py lists them as missing from the
# baseline and does not gate them, but every snapshot records them.
# BenchmarkEigenSymJacobi and BenchmarkShardedSketch left the set with
# the code they measured; bench_gate.py lists their BENCH_PR8.json
# entries as missing in the current run and skips them.
PATTERN='BenchmarkAttackPCADR$|BenchmarkAttackBEDR$|BenchmarkAttackSF$|BenchmarkAttackUDR$|BenchmarkEigenSym$|BenchmarkMatMul$|BenchmarkCovarianceMatrix$|BenchmarkMulABT$|BenchmarkSymRankK$|BenchmarkStreamingAttack$|BenchmarkSweepVsSequential$|BenchmarkClusterSweepJob$|BenchmarkReconstruct$|BenchmarkReconstructPosterior$'

RAW="${OUT}.txt"
echo "running benches (pattern: ${PATTERN}, benchtime: ${BENCHTIME}) ..." >&2
go test -run '^$' -bench "${PATTERN}" -benchmem -benchtime "${BENCHTIME}" . ./internal/server ./internal/asr >"${RAW}"
cat "${RAW}" >&2

STAMP="$(date -u '+%Y-%m-%dT%H:%M:%SZ')"
GO_VERSION="$(go version)"

python3 - "$RAW" "$OUT" "$STAMP" "$GO_VERSION" <<'EOF'
import json, os, re, sys

raw, out, stamp, go_version = sys.argv[1], sys.argv[2], sys.argv[3], sys.argv[4]
benches = {}
pat = re.compile(
    r'^(Benchmark\S+)\s+(\d+)\s+([\d.]+) ns/op(?:\s+([\d.]+) B/op)?(?:\s+(\d+) allocs/op)?')
for line in open(raw):
    m = pat.match(line.strip())
    if not m:
        continue
    name = m.group(1).rsplit('-', 1)[0]  # strip -GOMAXPROCS suffix
    benches[name] = {
        "iterations": int(m.group(2)),
        "ns_per_op": float(m.group(3)),
        **({"bytes_per_op": float(m.group(4))} if m.group(4) else {}),
        **({"allocs_per_op": int(m.group(5))} if m.group(5) else {}),
    }

# A snapshot file carries a pinned "baseline" section (the pre-change
# numbers the current run is compared against); re-running the script
# only refreshes "current".
doc = {}
if os.path.exists(out):
    try:
        doc = json.load(open(out))
    except ValueError:
        doc = {}
doc.setdefault("meta", {})
doc["meta"]["recorded"] = stamp
doc["meta"]["go"] = go_version
doc["current"] = benches
with open(out, "w") as f:
    json.dump(doc, f, indent=2, sort_keys=True)
    f.write("\n")
print(f"wrote {out} ({len(benches)} benchmarks)", file=sys.stderr)
EOF
