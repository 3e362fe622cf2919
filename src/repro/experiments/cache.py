"""On-disk result store: re-running an unchanged sweep is incremental.

Results are keyed by **scenario content hash** plus a **code fingerprint** —
a hash over every ``repro`` source file — so a cache entry is served only
when neither the scenario *nor the simulator code* has changed.  Editing any
module under ``src/repro/`` silently invalidates the whole store (stale
entries of older fingerprints are simply never read again; ``prune`` deletes
them).

Layout::

    <root>/<code-fingerprint>/<scenario-id>.json

    <root>/<code-fingerprint>/<scenario-id>.trace.jsonl   (``run --trace``)

Each entry stores the canonical scenario next to its result, so a hit is
verified against the full scenario content (hash collisions or hand-edited
files cannot smuggle in a wrong result) and the store is self-describing.
Entries and trace artifacts are written to a temporary file in the same
directory and renamed into place, so a reader never sees half of one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
from typing import TYPE_CHECKING, List, Optional

from .spec import Scenario

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .runner import ScenarioResult

__all__ = ["ResultCache", "code_fingerprint", "default_cache_dir"]

_FINGERPRINT: Optional[str] = None


def code_fingerprint() -> str:
    """Hash (12 hex digits) over all ``repro`` package sources, memoised.

    This is the "code-relevant config" part of the cache key: any edit to the
    simulator, the algorithms or the harness changes the fingerprint and
    therefore starts a fresh cache generation.
    """
    global _FINGERPRINT
    if _FINGERPRINT is None:
        package_root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        digest = hashlib.sha256()
        for directory, subdirs, files in sorted(os.walk(package_root)):
            subdirs.sort()
            for name in sorted(files):
                if not name.endswith(".py"):
                    continue
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, package_root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
        _FINGERPRINT = digest.hexdigest()[:12]
    return _FINGERPRINT


def default_cache_dir() -> str:
    """``REPRO_EXPERIMENTS_CACHE`` or ``bench_results/experiments/cache``."""
    return os.environ.get(
        "REPRO_EXPERIMENTS_CACHE",
        os.path.join(os.getcwd(), "bench_results", "experiments", "cache"))


def _write_atomic(path: str, text: str) -> None:
    """Create or replace ``path`` with ``text`` in one rename."""
    os.makedirs(os.path.dirname(path), exist_ok=True)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise


class ResultCache:
    """Directory-backed scenario-result store (one JSON file per scenario)."""

    def __init__(self, root: Optional[str] = None,
                 fingerprint: Optional[str] = None):
        self.root = root if root is not None else default_cache_dir()
        self.fingerprint = fingerprint if fingerprint is not None \
            else code_fingerprint()

    def key(self, scenario: Scenario) -> str:
        """The full cache key: scenario content hash + code fingerprint."""
        return f"{scenario.scenario_id}-{self.fingerprint}"

    def path_for(self, scenario: Scenario) -> str:
        return os.path.join(self.root, self.fingerprint,
                            f"{scenario.scenario_id}.json")

    def trace_path_for(self, scenario: Scenario) -> str:
        """Where ``run --trace`` persists the scenario's structured trace
        (``repro.obs`` JSONL), next to the cached result."""
        return os.path.join(self.root, self.fingerprint,
                            f"{scenario.scenario_id}.trace.jsonl")

    def put_trace(self, scenario: Scenario, jsonl: str) -> str:
        """Store the scenario's trace artifact; returns its path."""
        path = self.trace_path_for(scenario)
        _write_atomic(path, jsonl)
        return path

    def has_trace(self, scenario: Scenario) -> bool:
        """Whether the scenario's trace artifact is there and complete.

        Judged by header and line framing (schema, row counts against the
        number of table lines, final newline), which a missing, foreign or
        cut-off file fails; the tables are decoded only by whoever reads
        the trace, so a warm ``run --trace`` stays a file read per scenario.
        """
        # Imported here: untraced sweeps never load repro.obs.
        from ..obs import TraceFormatError, check_jsonl_framing
        try:
            check_jsonl_framing(self.trace_path_for(scenario))
        except (OSError, TraceFormatError):
            return False
        return True

    def get(self, scenario: Scenario) -> Optional["ScenarioResult"]:
        """The stored result of ``scenario`` (marked ``cached``), or None."""
        from .runner import ScenarioResult
        path = self.path_for(scenario)
        try:
            with open(path) as handle:
                data = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError, UnicodeDecodeError):
            return None  # absent, cut off or not text: a miss
        if not isinstance(data, dict) \
                or data.get("scenario") != scenario.canonical():
            # Not a result object, hash collision or tampered entry: a miss.
            return None
        result = ScenarioResult.from_dict(data, scenario=scenario)
        result.cached = True
        return result

    def put(self, result: "ScenarioResult") -> str:
        """Store a (successful) result; returns the entry's path."""
        if not result.ok:
            raise ValueError("refusing to cache a failed scenario result")
        path = self.path_for(result.scenario)
        payload = result.to_dict()
        payload["cached"] = False  # stored results re-mark on the way out
        payload["cache_key"] = self.key(result.scenario)
        _write_atomic(path, json.dumps(payload, indent=2, default=str) + "\n")
        return path

    def prune(self) -> List[str]:
        """Delete entries of other code fingerprints; returns removed dirs."""
        removed = []
        if not os.path.isdir(self.root):
            return removed
        for name in sorted(os.listdir(self.root)):
            path = os.path.join(self.root, name)
            if name != self.fingerprint and os.path.isdir(path):
                for entry in os.listdir(path):
                    os.remove(os.path.join(path, entry))
                os.rmdir(path)
                removed.append(path)
        return removed
