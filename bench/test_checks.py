"""Each benchmark checker accepts a right answer and rejects a wrong one.

    python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from hpmsim.pipeline import RunConfig, run  # noqa: E402


def test_level0_check_on_a_real_std1_run(tmp_path):
    cfg = RunConfig.from_dict({**workloads.STD1, "emit_blocks": str(tmp_path)})
    rep = run(cfg)
    m, c, delta = (rep.parameters[key] for key in ("m", "c", "delta"))
    level0 = float((tmp_path / f"x_{m:04d}_0.txt").read_text().split()[0])
    K, zeta = 0.4, 0.8
    u_T = checks.bernoulli_u(0.2, 0.5, 1.0)
    assert checks.check_level0(level0, zeta, u_T, K, c, delta) == []
    bound = K ** (c + 2) / (1 - K) + delta
    assert checks.check_level0(level0 + 2 * bound, zeta, u_T, K, c, delta)
    # the normalized output cannot tell: u_out is [1.0] for any positive level0
    assert rep.measurement["u_out"] == [1.0]


def test_ivp_reference_matches_the_bernoulli_closed_form():
    u_T = checks.ivp_reference(1, [[0, 0, -1.0]], [[0, 0, 0.2]], [0.5], 1.0)
    assert abs(u_T[0] - checks.bernoulli_u(0.2, 0.5, 1.0)) < 1e-12


def test_direction_check_rejects_a_wrong_state():
    cfg = workloads.config_dict("gen4-gmres", seed=1)
    u_T = checks.ivp_reference(cfg["n"], cfg["F1_triplets"], cfg["F2_triplets"],
                               cfg["u_in"], cfg["T"])
    right = u_T / np.linalg.norm(u_T)
    assert checks.check_direction(right, u_T, 1e-2) == []
    assert checks.check_direction(-right, u_T, 1e-2)
    tilted = right + 0.02 * np.roll(right, 1)
    assert checks.check_direction(tilted / np.linalg.norm(tilted), u_T, 1e-2)


def test_seed_reorders_triplets_without_changing_the_problem():
    cfgs = [workloads.config_dict("gen4-gmres", seed) for seed in (1, 2)]
    assert cfgs[0]["F2_triplets"] != cfgs[1]["F2_triplets"]
    for key in ("F1_triplets", "F2_triplets"):
        assert sorted(cfgs[0][key]) == sorted(cfgs[1][key])
    assert cfgs[0]["u_in"] == cfgs[1]["u_in"]


def _report(**changes):
    fields = {
        "status": "pass",
        "measurement": {"u_out": [0.6, 0.8]},
        "bound_checks": [
            {"check": "a", "precondition_ok": True, "pass": True,
             "measured": 1.0, "bound": 2.0},
            {"check": "b", "precondition_ok": False, "pass": False,
             "measured": 3.0, "bound": 2.0},
            {"check": "c", "precondition_ok": True, "pass": True,
             "measured": None, "bound": 0.0},
        ],
    }
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_report_check_rejects_each_broken_property():
    assert checks.check_report(_report()) == []
    assert checks.checks_measured(_report()) == 2
    assert checks.check_report(_report(status="bound_violation"))
    assert checks.check_report(_report(measurement={"u_out": [0.6, 0.81]}))
    failing = _report().bound_checks + [
        {"check": "d", "precondition_ok": True, "pass": False,
         "measured": 3.0, "bound": 2.0}]
    assert checks.check_report(_report(bound_checks=failing))
