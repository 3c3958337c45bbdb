#!/bin/sh
# Run every product entry point under the line audit, into one AUDIT_DIR.
#
# The product set: the `repro` experiment commands, every row of the
# golden table tests/golden.txt (each `repro chaos` campaign CI runs,
# `repro all`, the benchmark suite's six workloads), the example
# scripts, the benchmark files and the microbenchmark smoke.  Compare it
# with a tier-1 audit to list what only tests reach:
#
#     python tools/line_audit.py run /tmp/tier1 -- python -m pytest -x -q
#     sh tools/audit_product.sh /tmp/product
#     python tools/line_audit.py report /tmp/tier1 --minus /tmp/product
#
# Run from the repository root.  Exits non-zero if any run fails.
set -eu
out=${1:?usage: sh tools/audit_product.sh AUDIT_DIR}
mkdir -p "$out"
out=$(cd "$out" && pwd)
repo=$(pwd)
scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
export PYTHONPATH="$repo"

audit() {
    python "$repo/tools/line_audit.py" run "$out" -- "$@" > "$scratch/stdout" || {
        cat "$scratch/stdout"
        echo "audit_product: failed: $*" >&2
        exit 1
    }
}

for target in fig9 fig10 fig11 table2 exp3 price; do
    audit python -m repro "$target"
done
audit python -m repro render --output "$scratch/render.ppm"
audit python -m repro trace ray-tracing --out "$scratch/trace.json" \
    --jsonl "$scratch/spans.jsonl" --metrics-out "$scratch/trace.prom"
audit python -m repro doctor ray-tracing --prefetch 4 --out "$scratch/doctor.json"
audit python -m repro top ray-tracing

# Every row of the golden table, run in $scratch as `golden.py check`
# runs it in a directory of its own: postmortem bundles and trace files
# stay out of the tree.
python tools/golden.py list > "$scratch/rows"
cd "$scratch"
while read -r row; do
    # shellcheck disable=SC2086  # word splitting is the point
    case $row in
        repro\ *) audit python -m $row < /dev/null ;;
        *) audit python "$repo"/$row < /dev/null ;;
    esac
done < rows
cd "$repo"

audit python examples/quickstart.py
audit python examples/option_pricing.py
audit python examples/ray_tracing.py "$scratch/raytrace.ppm"
audit python examples/sharded_raytrace.py "$scratch/sharded.ppm"
audit python examples/web_prefetch.py
audit python examples/adaptive_cluster_demo.py web-prefetch
audit python examples/fault_tolerance.py
audit python examples/reproduce_paper.py --quick

# test_fails_without_the_program hides src from a child process to show
# the suite fails without the program; `line_audit.py run` puts src back
# on PYTHONPATH, so under the audit that test cannot pass.
audit python -m pytest -q -p no:cacheprovider benchmarks --benchmark-disable \
    --deselect benchmarks/suite/test_suite.py::test_fails_without_the_program
audit python benchmarks/run_micro.py --smoke
