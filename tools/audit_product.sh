#!/bin/sh
# Run every product entry point under the line audit, into one AUDIT_DIR.
#
# The product set: the `repro` experiment commands, one seed of every
# `repro chaos` shape that CI runs, the example scripts, the benchmark
# suite's six workloads, the benchmark files and the microbenchmark
# smoke.  Compare it with a tier-1 audit to list what only tests reach:
#
#     python tools/line_audit.py run /tmp/tier1 -- python -m pytest -x -q
#     sh tools/audit_product.sh /tmp/product
#     python tools/line_audit.py report /tmp/tier1 --minus /tmp/product
#
# Run from the repository root.  Exits non-zero if any run fails.
set -eu
out=${1:?usage: sh tools/audit_product.sh AUDIT_DIR}
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
export PYTHONPATH=.

audit() {
    python tools/line_audit.py run "$out" -- "$@" > "$scratch/stdout" || {
        cat "$scratch/stdout"
        echo "audit_product: failed: $*" >&2
        exit 1
    }
}

for target in all fig9 fig10 fig11 table2 exp3 price; do
    audit python -m repro "$target"
done
audit python -m repro render --output "$scratch/render.ppm"
audit python -m repro trace ray-tracing --out "$scratch/trace.json" \
    --jsonl "$scratch/spans.jsonl" --metrics-out "$scratch/trace.prom"
audit python -m repro doctor ray-tracing --prefetch 4 --out "$scratch/doctor.json"
audit python -m repro top ray-tracing

# One seed of each `repro chaos` line in .github/workflows/ci.yml.
while read -r args; do
    # shellcheck disable=SC2086  # word splitting is the point
    audit python -m repro chaos $args
done <<EOF
--seed 11 --verify-determinism
--seed 11 --verify-determinism --prefetch 4
--seed 1 --fault kill-primary-space --verify-determinism
--seed 1 --fault kill-master --verify-determinism
--seed 1 --shards 4 --prefetch 4 --fault kill-master --verify-determinism
--seed 11 --shards 1 --fault kill-shard:0 --verify-determinism
--seed 23 --shards 4 --fault kill-shard:0 --verify-determinism --prefetch 4
--seed 42 --shards 16 --fault kill-shard:0 --verify-determinism
--seed 7 --fault partition
--seed 7 --shards 4 --fault pause:shard:1
--seed 7 --fault gray-slow --verify-determinism
--seed 7 --shards 4 --fault gray-slow:shard:1 --verify-determinism
--seed 23 --fault pause
--seed 23 --shards 4 --fault partition:shard:1
--seed 7 --tenants 8 --isolation --verify-determinism
--seed 7 --tenants 128 --isolation --verify-determinism
--seed 23 --tenants 8 --shards 4 --verify-determinism
--seed 23 --tenants 128 --shards 4 --verify-determinism
--seed 7 --tenants 8 --shards 4 --prefetch 4 --verify-determinism
--seed 42 --verify-determinism --trace --trace-out $scratch/chaos_trace.json --metrics-out $scratch/chaos_metrics.prom
EOF

audit python examples/quickstart.py
audit python examples/option_pricing.py
audit python examples/ray_tracing.py "$scratch/raytrace.ppm"
audit python examples/sharded_raytrace.py "$scratch/sharded.ppm"
audit python examples/web_prefetch.py
audit python examples/adaptive_cluster_demo.py web-prefetch
audit python examples/fault_tolerance.py
audit python examples/reproduce_paper.py --quick

for workload in farm_batched farm_per_task farm_hardened space_mixed \
        paper_eval chaos_sweep; do
    audit python benchmarks/suite/run.py --workload "$workload" \
        --seconds 1 --trace 1 --no-pin
done

# test_fails_without_the_program hides src from a child process to show
# the suite fails without the program; `line_audit.py run` puts src back
# on PYTHONPATH, so under the audit that test cannot pass.
audit python -m pytest -q -p no:cacheprovider benchmarks --benchmark-disable \
    --deselect benchmarks/suite/test_suite.py::test_fails_without_the_program
audit python benchmarks/run_micro.py --smoke
