"""Map-building benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload street-long --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src``. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``. The full report, with failure reasons and, when traced, every
span, goes to ``perfbench/out/``.
"""

import os

# One BLAS thread: the closed loop is one caller, and a second thread on a
# two-CPU machine widened the spread of pass times (see README.md).
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("street-long", "city-turns")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cityvps" / "__init__.py").is_file():
        print(f"no cityvps sources under {ROOT / 'src'}: run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    report = workloads.run(args.workload, args.seed, args.seconds, bool(args.trace))
    measured = report["per_layer"] if args.trace else report["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"metrics not measured: {missing}", file=sys.stderr)
        return 1

    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    out_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report))

    print(f"{args.workload} seed {args.seed}: {report['passes']} passes, {report['pass_s']}")
    print(f"operations: {report['attempted']} attempted, {report['failed']} failed")
    for reason, n in sorted(report["failure_reasons"].items()):
        print(f"  {n} x {reason}")
    for message in report["failed_checks"]:
        print(f"check failed: {message}")
    for m in wanted:
        print(f"  {m['name']} = {measured[m['name']]:.6g} {m['unit']}")
    if args.trace:
        table = report["self_s"][0]
        print("self time of the first pass by span, s:")
        for name, own in sorted(table.items(), key=lambda kv: -kv[1]):
            print(f"  {name:26s} {own:9.4f}")
        print(f"  {'sum':26s} {sum(table.values()):9.4f}  (pass wall time {report['pass_s'][0]:.4f})")
    print(f"report: {out_file.relative_to(ROOT)}")
    print(
        json.dumps(
            {
                "correct": not report["failed_checks"],
                "attempted": report["attempted"],
                "failed": report["failed"],
                "metrics": {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
