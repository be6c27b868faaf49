"""Structured experiment reports.

One JSON schema for every command: schema version, echoed inputs and config,
results, and a provenance tag on each numeric claim ({exact, fitted,
paper-overlay}, with external constants additionally labeled as
user-supplied).  Reports are byte-identical across runs for a fixed config
and seed: wall-clock timing is excluded from the canonical JSON and only
appears when explicitly requested.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from fractions import Fraction

SCHEMA_VERSION = 1


def tag(value, provenance: str):
    """Wrap a numeric claim with its provenance: exact | fitted |
    paper-overlay | user-supplied."""
    return {"value": _plain(value), "provenance": provenance}


def _plain(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, float):
        return x
    if isinstance(x, (int, str, bool)) or x is None:
        return x
    return str(x)


@dataclass
class ExperimentReport:
    command: str
    inputs: dict
    config: dict
    results: dict
    timing_s: float | None = None

    def to_dict(self, with_timing: bool = False) -> dict:
        out = {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "inputs": _plain(self.inputs),
            "config": _plain(self.config),
            "results": _plain(self.results),
        }
        if with_timing and self.timing_s is not None:
            out["timing_s"] = self.timing_s
        return out

    def to_json(self, with_timing: bool = False) -> str:
        return json.dumps(self.to_dict(with_timing), sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        """Tabular convenience export: one row per (B, count) when the
        results carry per-B counts, else flat key/value rows."""
        buf = io.StringIO()
        w = csv.writer(buf)
        res = self.results
        if "B_list" in res and "counts" in res:
            w.writerow(["B", "count"])
            for b, c in zip(res["B_list"], res["counts"]):
                w.writerow([b, c])
        else:
            w.writerow(["key", "value"])
            for k in sorted(res):
                w.writerow([k, json.dumps(_plain(res[k]), sort_keys=True)])
        return buf.getvalue()
