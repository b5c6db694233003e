"""Record the reference output digests into ``expected.json``.

    python3 perfbench/record_expected.py

Run this only at the commit whose outputs are the reference (the
benchmark's own first commit).  It computes every point of the paper
and mesoscale grids twice, in two different orders, and refuses to
write anything unless both passes agree and a third pass checked
against the new digests fails no point.
"""

from __future__ import annotations

import json
import random
import shutil
import sys

from run import HERE, SRC, WORK

sys.path.insert(0, str(SRC))

from workloads import Mesoscale, Paper  # noqa: E402


def passes(wl, seeds) -> list:
    wl.setup()
    try:
        out = []
        for seed in seeds:
            order = list(range(len(wl.grid)))
            random.Random(seed).shuffle(order)
            out.append(wl.run_pass(order))
        return out
    finally:
        wl.teardown()


def record(cls, name: str, work) -> dict:
    wl = cls(name, work, {"points": {}, "tables": {}})
    a, b = passes(wl, (0, 1))
    keys = {p.key for p in wl.grid}
    expected: dict = {"points": {}, "tables": {}}
    for key, value in sorted(a.outputs.items()):
        expected["points" if key in keys else "tables"][key] = value
    (check,) = passes(cls(name, work, expected), (2,))
    if a.outputs != b.outputs or check.failed:
        raise SystemExit(f"{name}: outputs are not deterministic or "
                         f"{len(check.failed)} point(s) failed; "
                         "nothing recorded")
    return expected


def main() -> int:
    work = WORK / "record"
    work.mkdir(parents=True)
    try:
        paper = record(Paper, "paper_cold", work)
        meso = record(Mesoscale, "mesoscale", work)
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    (HERE / "expected.json").write_text(json.dumps(
        {"paper": paper, "mesoscale": {"points": meso["points"]}},
        indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(paper['points'])} paper points, "
          f"{len(paper['tables'])} tables, "
          f"{len(meso['points'])} mesoscale points")
    return 0


if __name__ == "__main__":
    sys.exit(main())
