"""The speed kernel and the division of reported times by the run's speed."""

import subprocess
import sys
from pathlib import Path

import pytest

import calib
import run

HERE = Path(__file__).resolve().parents[1]


def test_kernel_is_fixed_work():
    assert calib.kernel() == calib.kernel()
    assert len(calib._INDEX) == calib._N ** 2


def test_importing_calib_loads_no_module_greenheight_might_need():
    code = ("import sys; before = set(sys.modules); import calib; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", code], cwd=HERE, check=True,
                         capture_output=True, text=True).stdout.split()
    assert set(out) <= {"calib", "time"}


def test_speed_is_mean_sample_over_reference_to_the_sensitivity():
    assert calib.speed([calib.REF_S, 3 * calib.REF_S]) == pytest.approx(2.0 ** calib.SENSITIVITY)


def test_end_to_end_divides_every_time_by_the_run_speed():
    slow = 2.0  # the engine ran at half its usual speed
    ref = slow ** (1 / calib.SENSITIVITY) * calib.REF_S
    op_s = [0.1 * (i + 1) for i in range(11)]
    res = {"workload": "presentations", "ops": [f"op{i}" for i in range(11)],
           "peak_rss_mb": 50.0,
           "passes": [{"run_s": sum(op_s), "op_s": op_s, "ref_s": [ref] * 11, "traced": False}
                      for _ in range(4)]}
    setups = [(0.4, [ref] * 6), (0.2, [calib.REF_S] * 6), (0.9, [ref] * 6)]
    metrics, notes = run.end_to_end(res, setups)
    assert notes["speed"] == pytest.approx(2.0)
    assert metrics["run_s"] == pytest.approx(sum(op_s) / 2)
    assert metrics["op_p50_ms"] == pytest.approx(300.0)
    assert metrics["ops_per_s"] == pytest.approx(11 / (sum(op_s) / 2))
    assert metrics["setup_s"] == pytest.approx(0.2)  # median of 0.2, 0.2 and 0.45
    assert notes["wall_run_s"] == pytest.approx(sum(op_s))
