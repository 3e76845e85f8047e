"""Record the stdout and exit code of ``audit --identity <id>`` for every
catalog id at the CLI's default span, as the byte-for-byte oracle of the
audit workload and of the cli workload's audit ops.

Run from the repository root on the commit whose output is the reference:

    python3 perfbench/record_goldens.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(Path.cwd() / "src"), str(HERE)]

import hybridquat  # noqa: E402
from workloads import GOLDENS, run_cli_inprocess  # noqa: E402


def main() -> None:
    audit = {}
    for ident in hybridquat.CATALOG:
        audit[ident] = list(run_cli_inprocess(("audit", "--identity", ident)))
    GOLDENS.write_text(json.dumps({"audit": audit}, indent=1) + "\n")
    print(f"wrote {len(audit)} goldens to {GOLDENS}")


if __name__ == "__main__":
    main()
