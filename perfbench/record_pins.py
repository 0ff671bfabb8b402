#!/usr/bin/env python3
"""Rewrite pins.json for the default seed.

    python3 perfbench/record_pins.py

Records, per workload, the sha256 of every generated feed file and of every
feed's report row without `timings_ms` (keys sorted). run.py refuses a
default-seed run whose feeds differ, and counts a feed whose report row
differs as failed. Rerun this only after a deliberate change to
`titlematch.synth` or to the report rows, and say so in the change.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402


def main() -> int:
    pins = {"seed": run.DEFAULT_SEED, "workloads": {}}
    for name in run.WORKLOADS:
        out = run.run(name, run.DEFAULT_SEED, 0, False, run.WORKLOADS, None)
        if out["failed"]:
            print(f"error: {name}: {out['notes'][:3]}", file=sys.stderr)
            return 1
        pins["workloads"][name] = {
            "feeds": out["feed_digests"],
            "report_rows": out["report_rows"],
        }
        print(f"{name}: {len(out['feed_digests'])} feeds pinned")
    run.PINS.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
