"""Time to verdict of oucontract's suites, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every round runs in a fresh worker process
(``bench/worker.py``), preceded by ``SETUP_PER_ROUND`` workers that only
import ``oucontract`` and load the inputs.  A run does at least one round
and starts another only while it can end within ``--seconds`` of the start,
judged by the longest round so far.  Then it launches set-up-only workers
while one can end within ``--seconds``, up to ``SETUP_SAMPLES`` set-up
times.  Each metric is the median over the run.  A traced run makes no
set-up-only launches.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are setup_s, verdict_s, cpu_s and peak_rss_mb; with
``--trace 1`` the rounds run under the span tracer of ``bench/tracer.py``
and the metrics are its per-layer self times and counts.

``correct`` is false when any check fails other than the 13 floor-free
pointwise checks of the known fault listed in ``bench/worker.py``; those
count in ``failed`` only.  Thread pools are left at their defaults.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("sweeps-2d", "converge-3d", "oracle-2d")
SETUP_PER_ROUND = 2
SETUP_SAMPLES = 16
RUN_LIMIT_S = 170.0   # a worker still running this long after the start is killed

sys.path.insert(0, str(BENCH))
from tracer import LAYER_METRICS  # noqa: E402
from worker import KNOWN_FAULT_CHECKS  # noqa: E402

END_TO_END = {"setup_s": "s", "verdict_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


class WorkerError(RuntimeError):
    pass


def launch(workload: str, seed: int, out_dir: Path, deadline: float,
           *flags: str) -> dict:
    """Start one worker process, wait for it and return its result line."""
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out_dir)]
    cmd += ["--launched", repr(time.monotonic()), *flags]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise WorkerError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "oucontract" / "__init__.py").is_file():
        print(f"error: no oucontract sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    out_dir = BENCH / "out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)

    flags = ("--trace",) if args.trace else ()
    per_round = 0 if args.trace else SETUP_PER_ROUND
    setups, rounds = [], []
    longest = longest_setup = 0.0
    start = time.monotonic()
    deadline = start + RUN_LIMIT_S

    def setup_only():
        nonlocal longest_setup
        began = time.monotonic()
        setups.append(launch(args.workload, args.seed, out_dir, deadline,
                             "--setup-only")["setup_s"])
        longest_setup = max(longest_setup, time.monotonic() - began)

    try:
        while not rounds or time.monotonic() - start + longest <= args.seconds:
            began = time.monotonic()
            for _ in range(per_round):
                setup_only()
            rounds.append(launch(args.workload, args.seed, out_dir, deadline,
                                 *flags))
            setups.append(rounds[-1]["setup_s"])
            longest = max(longest, time.monotonic() - began)
        while (not args.trace and len(setups) < SETUP_SAMPLES
               and time.monotonic() - start + longest_setup <= args.seconds):
            setup_only()
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    checks = [c for r in rounds for c in r["checks"]]
    failed = [name for name, passed in checks if not passed]
    unexpected = [name for name in failed if name not in KNOWN_FAULT_CHECKS]
    print(f"{len(checks)} checks attempted in {len(rounds)} rounds, "
          f"{len(failed)} failed", file=sys.stderr)
    for name in sorted(set(failed)):
        print(f"failed: {name} ({failed.count(name)} of {len(rounds)} rounds)",
              file=sys.stderr)

    def median(key):
        return statistics.median(r[key] for r in rounds)

    if args.trace:
        metrics = {name: {"value": statistics.median(r["layers"][name] for r in rounds),
                          "unit": unit} for name, unit in LAYER_METRICS.items()}
        print(json.dumps({"rounds": len(rounds), "traced_verdict_s": median("verdict_s")}))
    else:
        values = {"setup_s": statistics.median(setups),
                  "verdict_s": median("verdict_s"), "cpu_s": median("cpu_s"),
                  "peak_rss_mb": median("peak_rss_mb")}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        print(json.dumps({"rounds": len(rounds),
                          "verdict_s": [r["verdict_s"] for r in rounds]}))
    print(json.dumps({"correct": not unexpected, "attempted": len(checks),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
