"""Append ledger runs to the per-commit performance trajectory.

    python3 scripts/trajectory.py OUT_DIR [--sha SHA]

OUT_DIR is a ``benchmarks/ledger/run.py --out`` directory, searched
recursively for its ``<workload>.json`` documents.  Each becomes one JSON
line of ``benchmarks/TRAJECTORY.jsonl``, keyed by (sha, workload, seed): the
run's end-to-end and per-layer metrics, its length and the host it ran on.
A key already in the file is skipped with a warning, so the file only grows
and re-adding a directory is harmless.  The sha is this checkout's
``git describe --always`` commit.  A tree with uncommitted changes has no
commit to name, so there ``--sha`` is required: the label of the runs (say,
of a scratch copy of another commit, or of work not yet committed).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import Iterator, List

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEFAULT_FILE = os.path.join(ROOT, "benchmarks", "TRAJECTORY.jsonl")
#: Fields of a run document copied into its trajectory line.
FIELDS = ("workload", "seed", "quick", "seconds", "n_ops", "end_to_end",
          "per_layer", "host")


def run_documents(directory: str) -> Iterator[dict]:
    """Every ledger run document under *directory*, in path order."""
    for folder, _, names in sorted(os.walk(directory)):
        for name in sorted(names):
            if name.endswith(".json") and not name.endswith(".trace.json"):
                with open(os.path.join(folder, name)) as handle:
                    document = json.load(handle)
                if "end_to_end" in document:
                    yield document


def checkout_sha() -> str:
    """This checkout's commit; a tree with uncommitted changes has none."""
    sha = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT, check=True,
        capture_output=True, text=True,
    ).stdout.strip()
    if sha.endswith("-dirty"):
        raise SystemExit(f"uncommitted changes on {sha[:-6]}: label the runs "
                         f"with --sha")
    return sha


def append(directory: str, sha: str, path: str) -> List[dict]:
    """Append *directory*'s runs as *sha* to *path*; return the new lines."""
    seen = set()
    if os.path.exists(path):
        with open(path) as handle:
            for line in handle:
                row = json.loads(line)
                seen.add((row["sha"], row["workload"], row["seed"]))
    added = []
    for document in run_documents(directory):
        row = {"sha": sha, **{key: document.get(key) for key in FIELDS}}
        row["failures"] = len(document.get("failures", []))
        key = (sha, row["workload"], row["seed"])
        if key in seen:
            print(f"skipped: {sha} {row['workload']} seed {row['seed']} "
                  f"is already in {path}", file=sys.stderr)
            continue
        seen.add(key)
        added.append(row)
    with open(path, "a") as handle:
        for row in added:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return added


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("out_dir")
    parser.add_argument("--sha", default=None)
    args = parser.parse_args(argv)
    sha = args.sha or checkout_sha()
    added = append(args.out_dir, sha, DEFAULT_FILE)
    for row in added:
        print(f"{sha} {row['workload']} seed {row['seed']}")
    print(f"{len(added)} line(s) appended to {DEFAULT_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
