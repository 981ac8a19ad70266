"""The EXPERIMENTS.md speed table quotes ``BENCH_speed.json`` exactly.

Every row of the table names a ratio from the committed baseline's
``speedups``; the quoted number must equal the baseline value printed
at the table's own precision (``3.25×`` against 3.25, ``2.0×`` against
2.0), so a regenerated baseline cannot leave stale figures behind.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

REPO = Path(__file__).resolve().parents[2]

ROW = re.compile(r"^\| `(?P<name>[a-z0-9_]+)` \| \**(?P<ratio>\d+(?:\.\d+)?)×\** \|")


def speed_table_rows():
    text = (REPO / "EXPERIMENTS.md").read_text(encoding="utf-8")
    section = text.split("## Speed", 1)[1].split("\n## ", 1)[0]
    return [
        (match["name"], match["ratio"])
        for match in map(ROW.match, section.splitlines())
        if match
    ]


def test_speed_table_matches_baseline():
    speedups = json.loads(
        (REPO / "BENCH_speed.json").read_text(encoding="utf-8")
    )["speedups"]
    rows = speed_table_rows()
    assert rows, "no speed table rows found in EXPERIMENTS.md"
    for name, quoted in rows:
        assert name in speedups, f"{name} is not in BENCH_speed.json"
        decimals = len(quoted.partition(".")[2])
        measured = f"{speedups[name]:.{decimals}f}"
        assert quoted == measured, (
            f"EXPERIMENTS.md quotes {name} as {quoted}x, "
            f"BENCH_speed.json has {speedups[name]}"
        )
