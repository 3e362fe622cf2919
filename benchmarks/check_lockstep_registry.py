#!/usr/bin/env python
"""Fail CI when a lockstep phase kind ships without a differential test.

Every phase kind in ``SpmdCoordinator._KINDS`` — one per collective
operation (``bcast``, ``reduce``, ``allreduce``, ``scan``, ``gather``,
``barrier``: its flat phase class, and the schedule-IR replay when a join
carries a node-leader schedule) plus the sorting tier's externally
registered ``jqlevel``, seven in all — is priced analytically against the
engine's bit-identity contract.  That contract is only as strong as the
differential suite behind it, so each kind must be
claimed by at least one test module via a module-level ``COVERS_KINDS``
tuple::

    COVERS_KINDS = ("bcast", "reduce", ...)

This script AST-scans ``tests/**/test_*.py`` for those declarations (no test
imports are executed), imports the modules that register kinds to
materialise the full registry, and fails when

* a registered kind has no covering test module (an ungated pricer), or
* a ``COVERS_KINDS`` entry names a kind that no longer exists (a stale
  declaration that would mask a future rename).

Run from ``benchmarks/`` with ``PYTHONPATH=../src`` (CI wires it into the
bench-smoke job next to ``check_trajectory.py``)::

    PYTHONPATH=../src python check_lockstep_registry.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
TESTS_DIR = REPO_ROOT / "tests"


def declared_covers(tests_dir: Path) -> dict[str, list[str]]:
    """kind -> test modules (repo-relative) declaring it in COVERS_KINDS."""
    covers: dict[str, list[str]] = {}
    for path in sorted(tests_dir.rglob("test_*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in tree.body:
            if not isinstance(node, ast.Assign):
                continue
            targets = [t.id for t in node.targets
                       if isinstance(t, ast.Name)]
            if "COVERS_KINDS" not in targets:
                continue
            value = node.value
            if not isinstance(value, (ast.Tuple, ast.List)):
                raise SystemExit(
                    f"{path}: COVERS_KINDS must be a literal tuple/list "
                    f"of kind strings")
            for element in value.elts:
                if not (isinstance(element, ast.Constant)
                        and isinstance(element.value, str)):
                    raise SystemExit(
                        f"{path}: COVERS_KINDS entries must be string "
                        f"literals")
                covers.setdefault(element.value, []).append(
                    str(path.relative_to(REPO_ROOT)))
    return covers


def registered_kinds() -> set[str]:
    """Materialise the full phase-kind registry, external kinds included."""
    sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.core.spmd import SpmdCoordinator
    import repro.sorting.batched  # noqa: F401  registers "jqlevel"
    return set(SpmdCoordinator._KINDS)


def main() -> int:
    covers = declared_covers(TESTS_DIR)
    kinds = registered_kinds()
    failed = False

    uncovered = sorted(kinds - covers.keys())
    if uncovered:
        failed = True
        print("UNCOVERED lockstep phase kinds (no test module declares "
              "them in COVERS_KINDS):")
        for kind in uncovered:
            print(f"  {kind}")

    stale = sorted(covers.keys() - kinds)
    if stale:
        failed = True
        print("STALE COVERS_KINDS declarations (kind not in the registry):")
        for kind in stale:
            print(f"  {kind}  (declared in {', '.join(covers[kind])})")

    if failed:
        return 1
    width = max(len(kind) for kind in kinds)
    for kind in sorted(kinds):
        print(f"  {kind:<{width}}  <- {', '.join(covers[kind])}")
    print(f"OK: all {len(kinds)} lockstep phase kinds have differential "
          f"coverage")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
