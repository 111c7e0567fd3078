"""Consistency of the committed benchmark records, ``BENCH_*.json``.

Each record stores, per workload and end-to-end metric, the parent's and
the change's median and quartiles over alternating pairs of runs, their
ratio, the count of pairs in which the change was better and, in newer
records, the parent's IQR; a ``claim`` block states whether a claimed gain
met its rule.  The stored figures are rounded to 4 decimals (some to 6),
so every derived figure is checked within the interval that the rounding
of the figures it is derived from allows.
"""

import decimal
import json
from pathlib import Path

import pytest

RECORDS = sorted(Path(__file__).resolve().parent.parent.glob("BENCH_*.json"))
U = 0.5e-4  # the most that rounding to 4 decimals moves a figure


def test_records_exist():
    assert RECORDS


def end_to_end(record):
    for workload, data in record["workloads"].items():
        for metric, stats in data["end_to_end"].items():
            yield f"{workload}.{metric}", data["pairs"], stats


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_quartiles_are_ordered(path):
    record = json.loads(path.read_text())
    sides = [(name, stats[side])
             for name, _, stats in end_to_end(record) for side in ("parent", "change")]
    for workload, metrics in record.get("traced", {}).get("workloads", {}).items():
        sides += [(f"{workload}.{metric}", stats[side])
                  for metric, stats in metrics.items() for side in ("parent", "change")]
    for name, q in sides:
        assert q["q1"] <= q["median"] <= q["q3"], name


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_ratios_counts_and_iqrs(path):
    """``change_over_parent`` is the ratio of the medians, within the
    rounding of the stored medians and of the ratio itself;
    ``pairs_change_better`` counts pairs; ``parent_iqr`` is q3 - q1."""
    for name, pairs, stats in end_to_end(json.loads(path.read_text())):
        p, c = stats["parent"]["median"], stats["change"]["median"]
        assert (c - U) / (p + U) - U <= stats["change_over_parent"] <= (c + U) / (p - U) + U, name
        assert 0 <= stats["pairs_change_better"] <= pairs, name
        if "parent_iqr" in stats:
            q1, q3 = stats["parent"]["q1"], stats["parent"]["q3"]
            assert abs(stats["parent_iqr"] - (q3 - q1)) <= 3 * U, name


@pytest.mark.parametrize("path", [p for p in RECORDS if "claim" in json.loads(p.read_text())],
                         ids=lambda p: p.name)
def test_claim_met_follows_its_rule(path):
    """A claim repeats its metric's count and IQR, its gain is the medians'
    difference in the better direction, and it is met exactly when the
    change was better in at least 9 of 10 pairs and gained more than the
    parent's IQR."""
    record = json.loads(path.read_text())
    claim = record["claim"]
    data = record["workloads"][claim["workload"]]
    stats = data["end_to_end"][claim["metric"]]
    assert claim["pairs_change_better"] == stats["pairs_change_better"]
    assert claim["parent_iqr"] == stats["parent_iqr"]
    p, c = stats["parent"]["median"], stats["change"]["median"]
    gain = c - p if stats["better"] == "higher" else p - c
    # the gain may be stored to fewer decimals: half a unit of its last one
    coarse = 0.5 * 10.0 ** decimal.Decimal(repr(float(claim["median_gain"]))).as_tuple().exponent
    assert abs(claim["median_gain"] - gain) <= max(U, coarse) + 2 * U
    nine_in_ten = 10 * claim["pairs_change_better"] >= 9 * data["pairs"]
    assert claim["met"] is (nine_in_ten and claim["median_gain"] > claim["parent_iqr"])
