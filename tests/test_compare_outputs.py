from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

_SPEC = importlib.util.spec_from_file_location(
    "compare_outputs", Path(__file__).resolve().parents[1] / "tools" / "compare_outputs.py"
)
compare_outputs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(compare_outputs)


def _cell(method: str, cell: tuple, h=0.1, k=5, points=((1.0, -2.0), (0.5, 4.0)), w2=0.25,
          status="ok", error="") -> dict:
    plan = {name: np.array([0.5]) for name in compare_outputs.PLAN_COLUMNS}
    plan.update(h=np.array([h]), k=np.array([k]))
    return {"workload": "w", "method": method, "cell": cell, "status": status, "error": error,
            "plan": plan, "points": np.array(points), "final_w2": w2}


def test_summary_counts_bitwise_outputs_and_largest_changes():
    parent = [_cell("linhart", (1, 0, 3, 7)), _cell("geffner", (1, 0, 3, 7)),
              _cell("geffner", (1, 1, 3, 8))]
    change = [_cell("linhart", (1, 0, 3, 7)),  # bitwise
              _cell("geffner", (1, 0, 3, 7), h=0.1 * (1 + 1e-13),
                    points=((1.0, -2.0), (0.5, 4.0 + 4e-15)), w2=0.25 * (1 + 2e-15)),
              _cell("geffner", (1, 1, 3, 8))]
    summary = compare_outputs.summarize(parent, change[::-1])  # matched by identity, not order
    lin, gef = summary[("w", "linhart")], summary[("w", "geffner")]
    assert (lin["cells"], lin["plans"], lin["bitwise_plans"]) == (1, 1, 1)
    assert (lin["samples"], lin["bitwise_samples"], lin["dx_over_max_x"]) == (1, 1, 0.0)
    assert (gef["cells"], gef["bitwise_plans"], gef["bitwise_samples"]) == (2, 1, 1)
    assert gef["column_rel"]["h"] == pytest.approx(1e-13, rel=1e-2)
    assert gef["column_rel"]["k"] == 0.0
    assert gef["dx_over_max_x"] == pytest.approx(1e-15, rel=1e-1)  # 4e-15 of max |x| 4
    assert gef["final_w2_rel"] == pytest.approx(2e-15, rel=1e-1)
    lines, differs = compare_outputs.report(summary)
    assert not differs
    assert "w geffner: 2 cells, 0 status changes []" in lines


@pytest.mark.parametrize("changed", [{"k": 6}, {"status": "error", "error": "tuning: x"}],
                         ids=["k", "status"])
def test_a_status_or_k_change_is_named_and_differs(changed):
    parent = [_cell("geffner", (2, 0, 4, 9))]
    change = [_cell("geffner", (2, 0, 4, 9), **changed)]
    summary = compare_outputs.summarize(parent, change)
    row = summary[("w", "geffner")]
    assert row["k_changed" if "k" in changed else "status_changed"] == [(2, 0, 4, 9)]
    assert compare_outputs.report(summary)[1]


def test_sides_must_run_the_same_cells():
    with pytest.raises(ValueError, match="different cells"):
        compare_outputs.summarize([_cell("geffner", (1, 0, 3, 7))],
                                  [_cell("geffner", (1, 0, 3, 8))])


def test_seed_ranges_and_lists():
    assert compare_outputs.parse_seeds("1-5") == [1, 2, 3, 4, 5]
    assert compare_outputs.parse_seeds("3,1") == [3, 1]
