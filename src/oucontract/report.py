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
    """Figure-kind CSVs extracted from a report's tables.

    Emits whatever of the four standard kinds the suite produced:
    ratio-vs-sigma, ratio-vs-p, D_n-vs-n, Hgamma histogram.  A suite with
    none of them gets a full copy of each of its tables, and one with no
    table a header-only ``empty.csv``.
    """
    out = Path(out_dir) / "plotdata"
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    def _emit(name: str, table: Table):
        path = out / name
        write_table(path, table)
        written.append(path)

    records_table = report.tables.get("records")
    if report.suite == "contract" and records_table is not None:
        cols = records_table.columns
        i_sigma, i_p = cols.index("sigma"), cols.index("p")
        i_ratio = cols.index("ratio")
        i_dom, i_bump = cols.index("domain"), cols.index("bump")
        by_sigma = Table(
            "gradient-norm ratio vs sigma; one row per (domain, bump, p, sigma)",
            ["domain", "bump", "p", "sigma", "ratio"],
            [[r[i_dom], r[i_bump], r[i_p], r[i_sigma], r[i_ratio]]
             for r in records_table.rows],
        )
        _emit("ratio_vs_sigma.csv", by_sigma)
        by_p = Table(
            "gradient-norm ratio vs p; one row per (domain, bump, sigma, p)",
            ["domain", "bump", "sigma", "p", "ratio"],
            [[r[i_dom], r[i_bump], r[i_sigma], r[i_p], r[i_ratio]]
             for r in records_table.rows],
        )
        _emit("ratio_vs_p.csv", by_p)

    dn_table = report.tables.get("convergence")
    if dn_table is not None:
        _emit("dn_vs_n.csv", dn_table)

    hist_table = report.tables.get("curvature_values")
    if hist_table is not None:
        _emit("hgamma_histogram.csv", hist_table)

    if not written:
        for name, table in report.tables.items():
            _emit(f"{name}.csv", table)
    if not written:
        _emit("empty.csv", Table("no tables in report", ["empty"], []))
    return written
