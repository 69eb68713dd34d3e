"""Quick self-test of the benchmark, on cut-down inputs (``--smoke``).

Run from the root of a checkout:

    python3 bench/selftest.py

For each workload it checks that an untraced run emits every end-to-end
metric of BENCHMARK.json with its unit, that a traced run emits every
per-layer metric with its unit, and that a deliberately wrong reference
value is counted in ``ops_failed_frac``.  It also checks that the runner
fails, without printing a result, in a directory that holds only the
benchmark.  Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN = BENCH / "run.py"
TIMEOUT_S = 170

# one wrong reference value per workload: (path into reference.json, value)
WRONG = {
    "census": (("census", "by_size", "3"), [2, 3]),
    "tables": (("dqra_counts", "5"), 9),
    "represent": (("chain_dq_sizes", "3"), 21),
}


def run(args, cwd=ROOT):
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=TIMEOUT_S)


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads((BENCH / "reference.json").read_text())
    problems = []

    def check(ok, message):
        if not ok:
            problems.append(message)
            print(f"FAIL {message}", flush=True)

    def check_metrics(workload, trace, declared, metrics):
        for m in declared:
            got = metrics.get(m["name"])
            check(got is not None, f"{workload} trace {trace}: {m['name']} missing")
            if got is not None:
                check(got["unit"] == m["unit"],
                      f"{workload} trace {trace}: {m['name']} unit {got['unit']!r}")
                check(isinstance(got["value"], (int, float)),
                      f"{workload} trace {trace}: {m['name']} is not a number")

    (BENCH / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selftest-", dir=BENCH / "out") as tmp:
        tmp = Path(tmp)
        for workload in (w["name"] for w in spec["workloads"]):
            for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
                done = run([str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
                            "--trace", str(trace), "--smoke"])
                check(done.returncode == 0, f"{workload} trace {trace}: exit {done.returncode}"
                      f"\n{done.stderr[-2000:]}")
                if done.returncode != 0:
                    continue
                detail, result = last_json(done.stdout)
                check(set(result) == {"correct", "attempted", "failed", "metrics"},
                      f"{workload} trace {trace}: result keys {sorted(result)}")
                check(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                      f"{workload} trace {trace}: {result['failed']} of "
                      f"{result['attempted']} ops failed")
                check_metrics(workload, trace, declared, result["metrics"])
                check(detail["ops_failed_frac"]["value"] == 0,
                      f"{workload} trace {trace}: ops_failed_frac is not 0")

            path, value = WRONG[workload]
            wrong = json.loads(json.dumps(reference))
            node = wrong
            for key in path[:-1]:
                node = node[key]
            node[path[-1]] = value
            wrong_path = tmp / f"wrong-{workload}.json"
            wrong_path.write_text(json.dumps(wrong))
            done = run([str(RUN), "--workload", workload, "--seed", "1", "--seconds", "1",
                        "--trace", "0", "--smoke", "--reference", str(wrong_path)])
            check(done.returncode == 0, f"{workload} wrong reference: exit {done.returncode}")
            if done.returncode == 0:
                detail, result = last_json(done.stdout)
                frac = detail["ops_failed_frac"]["value"]
                check(not result["correct"] and result["failed"] >= 1 and
                      frac == result["failed"] / result["attempted"] and frac > 0,
                      f"{workload} wrong reference not counted: {result['failed']} failed, "
                      f"ops_failed_frac {frac}")

        # a directory with only the benchmark: the runner must refuse
        bare = tmp / "bare"
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = run([str(bare / "bench" / "run.py"), "--workload", "census", "--seconds", "1"],
                   cwd=bare)
        check(done.returncode != 0, "runner succeeded without the qra sources")
        check("metrics" not in done.stdout, "runner printed a result without the qra sources")

    print("selftest: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
