"""Self-test of the benchmark: a tiny run (one pass) of every workload,
including ``paper_warm``, which BENCHMARK.json leaves out.

    python3 perfbench/selftest.py

Checks that

* every metric BENCHMARK.json names is reported, with its unit: the
  end-to-end metrics untraced, the per-layer metrics traced;
* the outputs match the recorded digests (no point fails);
* a deliberately wrong digest makes points fail, for a point row and
  for a figure table;
* the program counters of a traced run repeat exactly on another seed.

Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import sys

from run import ROOT, SRC, load_expected, run

sys.path.insert(0, str(SRC))

from workloads import WORKLOADS  # noqa: E402


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems: list[str] = []
    counters = {}
    for workload in WORKLOADS:
        for trace, names in wanted.items():
            r = run(workload, seed=1, seconds=0, trace=trace,
                    setup_samples=1)
            where = f"{workload} --trace {trace}"
            got = r["metrics"]
            for name, unit in names.items():
                if name not in got:
                    problems.append(f"{where}: {name} missing")
                elif got[name][1] != unit:
                    problems.append(f"{where}: {name} in {got[name][1]}, "
                                    f"not {unit}")
            if r["failed"] or not r["exact"]:
                problems.append(f"{where}: {r['failed']} failed points, "
                                f"exact counters {r['exact']}")
            if trace and workload == "paper_cold":
                counters = r["counters"]

    for section, group, workload in (("paper", "points", "paper_cold"),
                                     ("paper", "tables", "paper_cold"),
                                     ("mesoscale", "points", "mesoscale")):
        expected = load_expected()
        digests = expected[section][group]
        digests[next(iter(digests))] = "0" * 16
        r = run(workload, seed=1, seconds=0, trace=0, expected=expected,
                setup_samples=1)
        if not r["failed"] or r["metrics"]["ok_frac"][0] >= 1:
            problems.append(f"a wrong {section} {group} digest did not "
                            f"fail {workload}")

    other = run("paper_cold", seed=2, seconds=0, trace=1)["counters"]
    if not counters.get("sim.events_fired") or other != counters:
        problems.append("paper_cold program counters differ across seeds")

    for line in problems:
        print("FAIL", line)
    print("selftest:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
