"""Report-formatting tests."""

import re

import pytest

from repro.enumeration import enumerate_candidates
from repro.power import candidate_power
from repro.power.report import stage_table
from repro.specs import AdcSpec


def test_stage_table_contains_every_stage():
    spec = AdcSpec(resolution_bits=13)
    cand = next(c for c in enumerate_candidates(13) if c.label == "4-3-2")
    table = stage_table(candidate_power(spec, cand))
    assert "candidate 4-3-2" in table
    assert table.count("\n") >= 4
    assert "total" in table


def test_stage_table_rows_add_up_to_the_summary():
    spec = AdcSpec(resolution_bits=13)
    cand = next(c for c in enumerate_candidates(13) if c.label == "4-3-2")
    lines = stage_table(candidate_power(spec, cand)).splitlines()
    rows = [line.split() for line in lines[2:-1]]
    assert [int(row[1]) for row in rows] == [4, 3, 2]
    # Each printed figure is rounded to the nearest 0.01 mW.
    for row in rows:
        assert float(row[2]) + float(row[3]) == pytest.approx(float(row[4]), abs=0.016)
    summary = re.fullmatch(
        r"  total ([\d.]+) mW \(mdac ([\d.]+), sub-ADC ([\d.]+)\)", lines[-1]
    )
    assert summary is not None
    rounding = 0.005 * (len(rows) + 1) + 1e-9
    for column, printed in zip((4, 2, 3), summary.groups()):
        column_sum = sum(float(row[column]) for row in rows)
        assert column_sum == pytest.approx(float(printed), abs=rounding)
