"""Regenerate the golden replay counters after an intentional change
to the host model: ``PYTHONPATH=src python -m
tests.host.regen_replay_golden`` (from the repository root)."""

from __future__ import annotations

import json


def main() -> None:
    from tests.host.test_replay import (GOLDEN, fresh_cpu, golden_cells,
                                        golden_row, record_small_trace)

    trace = record_small_trace()
    rows = {cell: golden_row(fresh_cpu(trace, platform,
                                       **kwargs).replay_recorder(trace))
            for cell, (platform, kwargs) in golden_cells().items()}
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(rows, indent=1, sort_keys=True) + "\n",
                      encoding="utf-8")
    print(f"regenerated {GOLDEN}")


if __name__ == "__main__":
    main()
