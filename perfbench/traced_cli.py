"""Run one curvhom CLI command with the tracer installed, then write the
folded span totals as JSON to the path given as the first argument.

    python traced_cli.py TOTALS.json classify --family h --function t^3 ...
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import curvhom.cli  # noqa: E402
import tracer  # noqa: E402


def main() -> int:
    totals_path, argv = sys.argv[1], sys.argv[2:]
    t = tracer.Tracer()
    t.install()
    try:
        return curvhom.cli.main(argv)
    finally:
        t.uninstall()
        Path(totals_path).write_text(json.dumps(t.fold().to_dict()), encoding="utf-8")


if __name__ == "__main__":
    raise SystemExit(main())
