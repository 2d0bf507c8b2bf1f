"""Compare two output trees of ``oucontract``, such as two runs of ``all``.

Usage: python tools/same_outputs.py DIR_A DIR_B

Both trees must hold the same relative file paths.  A ``report.json``
matches when its ``payload`` and its ``profile`` equal the other's; only
the timestamp ``generated_at`` and the profile's ``wall_s`` and
``peak_rss_mb`` are ignored, so work counters such as ``linear_solves``
must match too, and a change that adds or drops work shows as a
difference.  Every other file must be byte-identical.  One line is printed per differing, missing or
extra file; the exit status is 0 when everything matches and 1 otherwise
(2 when the arguments are not two directories).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def _files(root: Path) -> set[Path]:
    return {p.relative_to(root) for p in root.rglob("*") if p.is_file()}


_VOLATILE = ("wall_s", "peak_rss_mb")  # profile entries that vary run to run


def _report(path: Path) -> str:
    """Payload and profile, less its volatile entries, as canonical text.

    As text, a NaN matches itself and 1 differs from 1.0.
    """
    doc = json.loads(path.read_text())
    profile = {k: v for k, v in doc["profile"].items() if k not in _VOLATILE}
    return json.dumps([doc["payload"], profile], sort_keys=True)


def _same(a: Path, b: Path) -> bool:
    if a.name == "report.json":
        return _report(a) == _report(b)
    return a.read_bytes() == b.read_bytes()


def compare(dir_a, dir_b) -> list[str]:
    """One line per relative path that is missing, extra or different."""
    root_a, root_b = Path(dir_a), Path(dir_b)
    files_a, files_b = _files(root_a), _files(root_b)
    lines = [f"missing: {p}" for p in sorted(files_a - files_b)]
    lines += [f"extra: {p}" for p in sorted(files_b - files_a)]
    lines += [f"differs: {p}" for p in sorted(files_a & files_b)
              if not _same(root_a / p, root_b / p)]
    return lines


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2 or not all(Path(a).is_dir() for a in args):
        print("usage: same_outputs.py DIR_A DIR_B (two directories)", file=sys.stderr)
        return 2
    lines = compare(*args)
    for line in lines:
        print(line)
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
