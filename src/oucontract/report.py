"""Suite reports: deterministic JSON payloads plus CSV side tables.

Re-running a suite with the same config and seed must reproduce the JSON
payload byte for byte; the volatile fields, the timestamp and the
``profile`` block (wall time and work counters), live outside the payload.
"""

from __future__ import annotations

import csv
import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path


def _canonical(obj) -> str:
    """Sorted-key JSON of ``obj``; values JSON cannot hold (numpy ints) go as str."""
    return json.dumps(obj, sort_keys=True, default=str)


def digest(obj) -> str:
    """Stable short digest of a JSON-serializable object."""
    return hashlib.sha256(_canonical(obj).encode("utf-8")).hexdigest()[:12]


@dataclass
class CheckRecord:
    name: str
    observed: float
    bound: float
    passed: bool
    asserted: bool = True
    inputs: dict = field(default_factory=dict)

    def row(self) -> dict:
        """Payload row; an asserted record that fails also carries its inputs."""
        row = {
            "name": self.name,
            "inputs_digest": digest(self.inputs),
            "observed": self.observed,
            "bound": self.bound,
            "pass": self.passed,
            "asserted": self.asserted,
        }
        if self.asserted and not self.passed:
            row["inputs"] = json.loads(_canonical(self.inputs))
        return row


@dataclass
class Table:
    """A plot-ready data table with a documenting header comment."""

    comment: str
    columns: list[str]
    rows: list[list]


@dataclass
class SuiteReport:
    suite: str
    seed: int
    config: dict
    records: list[CheckRecord] = field(default_factory=list)
    environment: dict = field(default_factory=dict)
    tables: dict[str, Table] = field(default_factory=dict)
    plots: dict[str, Table] = field(default_factory=dict)  # plotdata/<name>.csv
    profile: dict = field(default_factory=dict)  # written beside the payload

    def add(self, record: CheckRecord) -> None:
        self.records.append(record)

    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if r.asserted and not r.passed]

    @property
    def ok(self) -> bool:
        return not self.failures()

    def payload(self) -> dict:
        return {
            "suite": self.suite,
            "seed": self.seed,
            "config": self.config,
            "environment": self.environment,
            "records": [r.row() for r in self.records],
            "ok": self.ok,
        }

    def write(self, out_dir) -> Path:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        doc = {
            "payload": self.payload(),
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "profile": self.profile,
        }
        path = out / "report.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")
        for name, table in self.tables.items():
            write_table(out / f"{self.suite}_{name}.csv", table)
        return path


def write_table(path, table: Table) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(f"# {table.comment}\n")
        writer = csv.writer(fh)
        writer.writerow(table.columns)
        for row in table.rows:
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row])


def emit_plotdata(report: SuiteReport, out_dir) -> list[Path]:
    """Write each of the report's ``plots`` to ``plotdata/<name>.csv``.

    A report with no plots gets a header-only ``plotdata/empty.csv``.
    """
    out = Path(out_dir) / "plotdata"
    out.mkdir(parents=True, exist_ok=True)
    plots = report.plots or {"empty": Table("no tables in report", ["empty"], [])}
    written = []
    for name, table in plots.items():
        written.append(out / f"{name}.csv")
        write_table(written[-1], table)
    return written
