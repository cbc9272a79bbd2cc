"""Toy-size self-test of the benchmark and its correctness checks.

    python3 perfbench/selftest.py

Runs every workload at toy size, untraced and traced, and requires
``mismatch_frac == 0``. Then runs each again with one slot of the first
checked output corrupted and requires ``mismatch_frac > 0``, which shows
that the checks compare something. Exits non-zero on any failure.
"""

from __future__ import annotations

import sys

import run


def main() -> int:
    driver = run.import_driver()
    workdir = run.OUT / "selftest"
    workdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for name in driver.WORKLOADS:
        for trace, corrupt in ((False, False), (True, False), (False, True)):
            tracer = driver.Tracer(trace)
            report = driver.run_workload(name, 3, 1, tracer, workdir, size="toy", corrupt=corrupt)
            frac = report["metrics"]["mismatch_frac"]["value"]
            ok = frac > 0 if corrupt else frac == 0 and report["checked"] > 0
            failures += not ok
            print(
                f"{'PASS' if ok else 'FAIL'} {name:17s} trace={int(trace)} corrupt={int(corrupt)} "
                f"ops={report['attempted']} checked={report['checked']} mismatch_frac={frac:.3f}"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    run.pin_threads()
    sys.exit(main())
