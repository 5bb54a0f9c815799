"""Regenerate the golden lint report after an intentional format
change: ``PYTHONPATH=src python -m tests.analysis.regen_golden``
(from the repository root)."""

from __future__ import annotations

from pathlib import Path


def main() -> None:
    from repro.analysis import render_json
    from tests.analysis.test_output import _fixed_findings

    golden = Path(__file__).parent / "golden"
    golden.mkdir(exist_ok=True)
    (golden / "lint.json").write_text(
        render_json(_fixed_findings()) + "\n", encoding="utf-8")
    print(f"regenerated {golden / 'lint.json'}")


if __name__ == "__main__":
    main()
