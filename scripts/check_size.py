#!/usr/bin/env python
"""Size ratchet: the codebase may shrink freely, but only grow on purpose.

``scripts/size_ratchet.json`` records five numbers — ``src/`` line count,
``EngineConfig`` / ``ServiceConfig`` field counts, CI job count and the
number of ``benchmarks/bench_*.py`` scripts.  This check fails when any of
them is *above* its recorded value, so a PR that adds surface has to raise
the number in the same diff, where a reviewer sees it.  A PR that shrinks
something passes; ``--update`` rewrites the file to the current numbers so
the next PR is held to the lower bar.

Exit status 0 when nothing grew, 1 with one line per metric otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
RATCHET = REPO / "scripts" / "size_ratchet.json"


def measure() -> dict[str, int]:
    sys.path.insert(0, str(REPO / "src"))
    from repro.config import EngineConfig, ServiceConfig

    ci = (REPO / ".github" / "workflows" / "ci.yml").read_text(encoding="utf-8")
    jobs = ci.split("\njobs:\n", 1)[1]
    return {
        "src_lines": sum(
            path.read_bytes().count(b"\n")
            for path in (REPO / "src").rglob("*.py")
        ),
        "engine_config_fields": len(dataclasses.fields(EngineConfig)),
        "service_config_fields": len(dataclasses.fields(ServiceConfig)),
        "ci_jobs": len(re.findall(r"^  [\w-]+:\s*$", jobs, flags=re.MULTILINE)),
        "bench_scripts": len(list((REPO / "benchmarks").glob("bench_*.py"))),
    }


def main() -> int:
    current = measure()
    if "--update" in sys.argv[1:]:
        RATCHET.write_text(json.dumps(current, indent=2) + "\n", encoding="utf-8")
        print(f"check_size: wrote {RATCHET.name}: {current}")
        return 0
    recorded = json.loads(RATCHET.read_text(encoding="utf-8"))
    grew = [
        f"  {name}: {current[name]} > recorded {recorded[name]}"
        for name in current
        if current[name] > recorded[name]
    ]
    if grew:
        print(
            f"check_size: {len(grew)} metric(s) grew; shrink them or raise "
            f"scripts/{RATCHET.name} in this diff"
        )
        print("\n".join(grew))
        return 1
    slack = {n: recorded[n] - current[n] for n in current if current[n] < recorded[n]}
    hint = f" (below the ratchet: {slack}; run --update to lock it in)" if slack else ""
    print(f"check_size: OK{hint}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
