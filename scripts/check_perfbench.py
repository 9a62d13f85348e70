"""Fail unless a perfbench run reports itself correct with nothing failed.

perfbench prints one JSON object as the last line of standard output
(``correct``, ``attempted``, ``failed``, ``metrics``).  This echoes the
captured output and exits 1 unless that line has ``"correct": true`` and
``"failed": 0``::

    python3 perfbench/run.py --workload search --seed 1 --seconds 0 \\
        --trace 1 > .perfbench/search-smoke.out
    python3 scripts/check_perfbench.py .perfbench/search-smoke.out
"""

from __future__ import annotations

import json
import sys


def main(path: str) -> int:
    with open(path) as handle:
        lines = handle.read().splitlines()
    print("\n".join(lines))
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench printed no result line", file=sys.stderr)
        return 1
    if result.get("correct") is not True or result.get("failed") != 0:
        print(f"perfbench run not clean: correct={result.get('correct')!r} "
              f"failed={result.get('failed')!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
