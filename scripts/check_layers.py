#!/usr/bin/env python
"""Import-layering lint for the repro package.

The codebase is layered bottom-up::

    utils, errors, config
      -> blocks          (single-block kernels; no distribution)
      -> matrix          (blocked matrices; no cluster knowledge)
      -> lang            (expression DAG; purely logical)
      -> cluster         (simulated cluster substrate)
      -> core / operators / execution   (planning, lowering, physical ops)
      -> baselines
      -> serving
      -> workloads

Each layer may import itself and anything *below* it — never above.  Two
rules the paper's architecture depends on get called out explicitly:

* ``blocks`` and ``matrix`` never import ``cluster`` (the data plane stays
  runtime-free), and nothing below ``serving`` imports ``serving``;
* only the task-table runner (``core/stages.py``: every fused operator's
  stages and the final-aggregation stage) may open cluster stages
  (``.stage(...)``) outside the cluster package — the operators compile
  their tables, and engines and everything above talk to the cluster
  through the physical plan;
* ``core/calibration.py`` consumes plain floats only: it may import nothing
  above the config layer (in particular never ``serving``), even though the
  ``core`` layer as a whole is allowed more;
* the query handles (``serving/ticket.py``) are front-end plumbing:
  results reach them as constructed objects, so they never import the
  planning/execution stacks, even though the ``serving`` layer as a whole
  may.

Imports inside ``if TYPE_CHECKING:`` blocks are ignored (annotations only).
Exit status 0 when clean, 1 with one line per violation otherwise.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src" / "repro"

#: layer name -> repro sub-packages/modules it may import (besides itself).
ALLOWED = {
    "utils": {"errors"},
    "errors": set(),
    "config": {"errors"},
    # obs sits at the bottom next to config: upper layers hand it plain
    # data, and it may never import core/cluster/serving (no cycles, and
    # telemetry can never reach back into the engine).
    "obs": {"utils", "errors", "config"},
    "blocks": {"utils", "errors", "config"},
    "matrix": {"blocks", "utils", "errors", "config"},
    "lang": {"matrix", "blocks", "utils", "errors", "config"},
    "cluster": {"matrix", "blocks", "utils", "errors", "config"},
    "core": {"execution", "cluster", "lang", "matrix", "blocks", "obs",
             "utils", "errors", "config"},
    "operators": {"core", "cluster", "lang", "matrix", "blocks", "obs",
                  "utils", "errors", "config"},
    # the base engine's run_unit picks the operator a unit runs on
    "execution": {"core", "operators", "cluster", "lang", "matrix", "blocks",
                  "obs", "utils", "errors", "config"},
    "baselines": {"core", "operators", "execution", "cluster", "lang",
                  "matrix", "blocks", "obs", "utils", "errors", "config"},
    "serving": {"baselines", "core", "operators", "execution", "cluster",
                "lang", "matrix", "blocks", "obs", "utils", "errors",
                "config"},
    "datasets": {"matrix", "blocks", "utils", "errors", "config"},
    "workloads": {"serving", "baselines", "core", "operators", "execution",
                  "cluster", "lang", "matrix", "blocks", "obs", "utils",
                  "errors", "config"},
}

#: Files allowed to call ``<something>.stage(...)``: the cluster package
#: (which defines it) plus the runner every fused operator's table runs on.
STAGE_ALLOWED_DIRS = ("cluster",)
STAGE_ALLOWED_FILES = ("core/stages.py",)

#: ``core/calibration.py`` is the shared store the serving layer publishes
#: and ``scripts/calibrate.py`` round-trips to disk.  It consumes plain
#: floats only, so it stays at the very bottom: never the cluster,
#: execution, or serving stacks — regardless of what the wider ``core``
#: layer is allowed.
CALIBRATION_ALLOWED = {"utils", "errors", "config"}

#: Tickets and served results are pure front-end plumbing: execution
#: results reach them as already-constructed objects, never as imports.
#: Regardless of what the wider ``serving`` layer is allowed, these files
#: must not import the planning/execution stacks (``core``, ``operators``,
#: ``execution``, ``baselines``) or anything above serving.
SERVING_TICKET_FILES = ("serving/ticket.py",)
SERVING_TICKET_ALLOWED = {"serving", "cluster", "obs", "utils", "errors",
                          "config"}

#: ``core/passes`` is the graph-level rewrite pipeline over the physical
#: IR: it sits strictly between lowering (``core/physical.py``) and engine
#: annotation.  It prices rewrites through the cost model only — never by
#: touching the runtime — so regardless of what the wider ``core`` layer
#: is allowed, it must not import the cluster substrate, the execution
#: layer, the physical operators, baselines, or serving.
PASSES_FORBIDDEN = {"cluster", "execution", "operators", "baselines",
                    "serving"}


def layer_of(path: Path) -> str | None:
    """The layer a source file belongs to (None for the repro facade)."""
    rel = path.relative_to(SRC)
    top = rel.parts[0]
    if top == "__init__.py":
        return None  # the public facade re-exports every layer
    if top.endswith(".py"):
        top = top[:-3]
    return top


def _is_type_checking(test: ast.expr) -> bool:
    if isinstance(test, ast.Name):
        return test.id == "TYPE_CHECKING"
    if isinstance(test, ast.Attribute):
        return test.attr == "TYPE_CHECKING"
    return False


def repro_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(lineno, repro-sub-layer) for every runtime import of repro.*"""
    found: list[tuple[int, str]] = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.If) and _is_type_checking(child.test):
                for orelse in child.orelse:
                    visit(orelse)
                continue
            if isinstance(child, ast.Import):
                for alias in child.names:
                    if alias.name == "repro" or alias.name.startswith("repro."):
                        parts = alias.name.split(".")
                        found.append((child.lineno, parts[1] if len(parts) > 1 else ""))
            elif isinstance(child, ast.ImportFrom):
                module = child.module or ""
                if child.level == 0 and (module == "repro" or module.startswith("repro.")):
                    parts = module.split(".")
                    found.append((child.lineno, parts[1] if len(parts) > 1 else ""))
            visit(child)

    visit(tree)
    return found


def stage_calls(tree: ast.AST) -> list[int]:
    """Line numbers of ``<expr>.stage(...)`` calls."""
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "stage"
    ]


def stage_allowed(rel: str) -> bool:
    if rel in STAGE_ALLOWED_FILES:
        return True
    return rel.split("/", 1)[0] in STAGE_ALLOWED_DIRS


def main() -> int:
    violations: list[str] = []
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        layer = layer_of(path)
        if layer is not None:
            if layer not in ALLOWED:
                violations.append(f"{rel}: unknown layer {layer!r} (add it to ALLOWED)")
                continue
            permitted = ALLOWED[layer] | {layer}
            for lineno, target in repro_imports(tree):
                if target and target not in permitted:
                    violations.append(
                        f"{rel}:{lineno}: layer {layer!r} must not import "
                        f"repro.{target}"
                    )
        if rel == "core/calibration.py":
            for lineno, target in repro_imports(tree):
                if target and target not in CALIBRATION_ALLOWED:
                    violations.append(
                        f"{rel}:{lineno}: core/calibration consumes plain "
                        f"floats and must not import repro.{target}"
                    )
        if rel in SERVING_TICKET_FILES:
            for lineno, target in repro_imports(tree):
                if target and target not in SERVING_TICKET_ALLOWED:
                    violations.append(
                        f"{rel}:{lineno}: query handles are front-end "
                        f"plumbing and must not import repro.{target}"
                    )
        if rel.startswith("core/passes/"):
            for lineno, target in repro_imports(tree):
                if target in PASSES_FORBIDDEN:
                    violations.append(
                        f"{rel}:{lineno}: core/passes sits between the "
                        f"physical IR and engine annotation and must not "
                        f"import repro.{target}"
                    )
        if not stage_allowed(rel):
            for lineno in stage_calls(tree):
                violations.append(
                    f"{rel}:{lineno}: only the task-table runner "
                    f"(core/stages.py) may open cluster stages (.stage(...))"
                )
    if violations:
        print(f"check_layers: {len(violations)} violation(s)")
        for line in violations:
            print("  " + line)
        return 1
    print("check_layers: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
