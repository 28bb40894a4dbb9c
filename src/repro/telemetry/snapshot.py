"""Snapshot value-object for metrics: JSON round-trip and deterministic merge.

A :class:`MetricsSnapshot` is the wire format of metrics: worker
processes put ``registry.snapshot().to_dict()`` in each
:class:`~repro.sweep.runner.CellResult`'s telemetry payload, the parent
rebuilds them with
:meth:`MetricsSnapshot.from_dict` and folds them together in canonical
cell order. Merging is plain addition per series (bucket-wise for
histograms), so it is associative and commutative up to float rounding;
ordering the merges makes the aggregate byte-identical at any worker
count.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

__all__ = ["HistogramData", "MetricsSnapshot", "SeriesKey", "series_key"]

#: Canonical hashable identity of one labeled series: sorted (name, value) pairs.
SeriesKey = tuple[tuple[str, str], ...]


def series_key(labels: dict[str, str]) -> SeriesKey:
    return tuple(sorted(labels.items()))


@dataclass
class HistogramData:
    """Value of one histogram series: per-bucket counts (last slot is +Inf)."""

    counts: list[int]
    sum: float
    count: int


@dataclass
class MetricsSnapshot:
    """Point-in-time copy of a registry's series, detached from it.

    ``metrics`` maps family name to ``{"kind", "help", "buckets", "series"}``
    where ``series`` maps a :data:`SeriesKey` to a number (counter/gauge)
    or :class:`HistogramData`.
    """

    metrics: dict[str, dict[str, Any]] = field(default_factory=dict)

    SCHEMA = 1

    # -- JSON round-trip -------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """Canonical JSON-able form: families and series in sorted order."""
        out = []
        for name in sorted(self.metrics):
            metric = self.metrics[name]
            series = []
            for key in sorted(metric["series"]):
                data = metric["series"][key]
                entry: dict[str, Any] = {"labels": dict(key)}
                if isinstance(data, HistogramData):
                    entry["counts"] = list(data.counts)
                    entry["sum"] = data.sum
                    entry["count"] = data.count
                else:
                    entry["value"] = data
                series.append(entry)
            family: dict[str, Any] = {
                "name": name,
                "kind": metric["kind"],
                "help": metric.get("help", ""),
                "series": series,
            }
            if metric.get("buckets"):
                family["buckets"] = list(metric["buckets"])
            out.append(family)
        return {"schema": self.SCHEMA, "metrics": out}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "MetricsSnapshot":
        schema = payload.get("schema")
        if schema != cls.SCHEMA:
            raise ValueError(f"unsupported metrics snapshot schema: {schema!r}")
        snap = cls()
        for family in payload.get("metrics", []):
            series: dict[SeriesKey, float | HistogramData] = {}
            for entry in family.get("series", []):
                key = series_key(entry.get("labels", {}))
                if "counts" in entry:
                    series[key] = HistogramData(
                        counts=list(entry["counts"]),
                        sum=entry["sum"],
                        count=entry["count"],
                    )
                else:
                    series[key] = entry["value"]
            snap.metrics[family["name"]] = {
                "kind": family["kind"],
                "help": family.get("help", ""),
                "buckets": list(family["buckets"]) if family.get("buckets") else None,
                "series": series,
            }
        return snap

    # -- merge -----------------------------------------------------------

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Return a new snapshot: per-series sums of ``self`` and ``other``."""
        merged = MetricsSnapshot()
        for source in (self, other):
            for name, metric in source.metrics.items():
                target = merged.metrics.get(name)
                if target is None:
                    target = {
                        "kind": metric["kind"],
                        "help": metric.get("help", ""),
                        "buckets": list(metric["buckets"]) if metric.get("buckets") else None,
                        "series": {},
                    }
                    merged.metrics[name] = target
                elif target["kind"] != metric["kind"]:
                    raise ValueError(
                        f"cannot merge metric {name!r}: "
                        f"{target['kind']} vs {metric['kind']}"
                    )
                for key, data in metric["series"].items():
                    existing = target["series"].get(key)
                    if existing is None:
                        if isinstance(data, HistogramData):
                            target["series"][key] = HistogramData(
                                counts=list(data.counts), sum=data.sum, count=data.count
                            )
                        else:
                            target["series"][key] = data
                    elif isinstance(data, HistogramData):
                        if len(existing.counts) != len(data.counts):
                            raise ValueError(
                                f"histogram {name!r} merge with mismatched bucket count"
                            )
                        existing.counts = [
                            a + b for a, b in zip(existing.counts, data.counts)
                        ]
                        existing.sum += data.sum
                        existing.count += data.count
                    else:
                        target["series"][key] = existing + data
        return merged

    # -- reading / filtering ---------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """Value of one counter/gauge series (0 if absent)."""
        metric = self.metrics.get(name)
        if metric is None:
            return 0
        data = metric["series"].get(series_key({k: str(v) for k, v in labels.items()}))
        if data is None or isinstance(data, HistogramData):
            return 0
        return data

    def total(self, name: str) -> float:
        """Sum of a counter/gauge family across all label sets (0 if absent)."""
        metric = self.metrics.get(name)
        if metric is None or metric["kind"] == "histogram":
            return 0
        return sum(metric["series"].values())

    def select(
        self, predicate: Callable[[str, str], bool]
    ) -> "MetricsSnapshot":
        """Sub-snapshot of families where ``predicate(name, kind)`` holds."""
        out = MetricsSnapshot()
        for name, metric in self.metrics.items():
            if predicate(name, metric["kind"]):
                out.metrics[name] = metric
        return out
