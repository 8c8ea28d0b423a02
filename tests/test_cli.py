import csv
import json
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import hpmsim
import hpmsim.embedding
import hpmsim.marching
import hpmsim.pipeline
from hpmsim.cli import main
from hpmsim.errors import BoundViolation, NumericalError
from hpmsim.pipeline import RunConfig, generate_instance, run
from hpmsim.sparse import read_triplets
from oracles import read_vector

STD1 = {
    "n": 1, "T": 1.0, "epsilon": 1e-2, "u_in": [0.5],
    "F1_triplets": [[0, 0, -1.0]],
    "F2_triplets": [[0, 0, 0.2]],
}


@pytest.fixture
def std1_config(tmp_path):
    path = tmp_path / "std1.json"
    path.write_text(json.dumps(STD1))
    return path


def test_run_writes_report_and_summary(std1_config, tmp_path, capsys):
    out = tmp_path / "out"
    code = main(["--config", str(std1_config), "--out", str(out), "run"])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["errors"]["final_error"] <= 1e-2
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert {"check", "measured", "bound", "pass"} <= set(rows[0])
    stdout = capsys.readouterr().out
    assert "status: pass" in stdout


def test_run_exit_code_validation(tmp_path):
    bad = {**STD1, "F2_triplets": [[0, 0, 0.5]], "u_in": [1.0]}  # K = 2
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(bad))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2


# the five refusals that force downgrades, each alone on std1: the config,
# the stage that refuses it and the start of its message
DOWNGRADABLE = [
    ({"c": 5}, "order", "override c = 5 violates the exponential-norm"),
    ({"epsilon": 0.5}, "order", "epsilon = 0.5 exceeds the admissible budget"),
    ({"m": 2}, "parameters", "||A h|| = 2.306 > 1 breaks the per-step contract"),
    ({"k": 3}, "parameters", "override k = 3 violates (k+1)! >= Omega"),
    # a loose tol keeps k = 3 above Omega, so the factorial margin fails alone
    ({"k": 3, "tol": 1000.0}, "parameters", "step-error precondition 2m(c+1)(c+2)"),
]
CAPPED = ("order capped at 3 by the exponential-norm precondition (budget wants 8); "
          "tail bound 1.707e-02 exceeds epsilon1 = 3.927e-04, relying on measured "
          "truncation error instead")


@pytest.mark.parametrize("extra,stage,message", DOWNGRADABLE)
def test_each_downgradable_refusal_exits_2_in_its_stage(tmp_path, capsys, extra, stage,
                                                        message):
    cfg = tmp_path / "std1.json"
    cfg.write_text(json.dumps({**STD1, **extra}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2
    assert capsys.readouterr().err.startswith(
        f"validation failure in stage {stage}: {message}")
    rep = run(RunConfig.from_dict({**STD1, **extra, "force": True}))
    assert sum(w.startswith(message) for w in rep.warnings) == 1


def test_forced_warnings_keep_their_order():
    rep = run(RunConfig.from_dict({**STD1, "c": 4, "m": 3, "k": 2, "epsilon": 0.5,
                                   "force": True}))
    assert rep.warnings == [
        "override c = 4 violates the exponential-norm precondition "
        "(largest admissible order is 3)",
        "epsilon = 0.5 exceeds the admissible budget 0.1 sqrt(1-2K^2)/eta' = 0.03238",
        "order override: using c = 4, budget selection was 3",
        "||A h|| = 1.93 > 1 breaks the per-step contract",
        "override k = 2 violates (k+1)! >= Omega = 9.656e+07",
        "step-error precondition 2m(c+1)(c+2) <= (k+1)! fails at k = 2",
    ]
    # the cap's override warning goes first, before the cap's own
    rep = run(RunConfig.from_dict({**STD1, "c": 5, "force": True}))
    assert rep.warnings == [
        "override c = 5 violates the exponential-norm precondition "
        "(largest admissible order is 3)",
        CAPPED, "order override: using c = 5, budget selection was 3"]
    rep = run(RunConfig.from_dict({**STD1, "k": 3, "force": True}))
    assert rep.warnings == [CAPPED, "override k = 3 violates (k+1)! >= Omega = 6.922e+09",
                            "step-error precondition 2m(c+1)(c+2) <= (k+1)! fails at k = 3"]


@pytest.mark.parametrize("force", [[], ["--force"]])
def test_strong_nonlinearity_is_refused_before_the_reference_forced_or_not(
        tmp_path, capsys, monkeypatch, force):
    def no_reference(*args, **kwargs):
        raise AssertionError("the reference ran")

    monkeypatch.setattr(hpmsim.pipeline, "reference_solution", no_reference)
    cfg = tmp_path / "k2.json"
    cfg.write_text(json.dumps({**STD1, "F2_triplets": [[0, 0, 0.5]], "u_in": [1.0]}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), *force, "run"]) == 2
    assert capsys.readouterr().err == (
        "validation failure in stage nonlinearity: K = 2 >= sqrt(2)/2: the level-0 "
        "post-selection bound needs K < sqrt(2)/2\n")


@pytest.mark.parametrize("u_in", [[float("nan")], ["0.5"], [0.0], [1e-300]])
def test_run_rejects_bad_u_in_at_load(tmp_path, u_in):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**STD1, "u_in": u_in}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2


@pytest.mark.parametrize("triplet", [[0, 0, "0.2"], [0, 0.0, 0.2], [0, 0, float("nan")]])
def test_run_rejects_bad_triplet_at_load(tmp_path, triplet, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**STD1, "F2_triplets": [triplet]}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2
    assert "F2_triplets" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    pytest.param("1 1 1\n0 0 nan\n", id="nan"),
    pytest.param("1 1 1\n0 0 inf\n", id="inf"),
    pytest.param("1 x 1\n0 0 -1.0\n", id="header-token"),
    pytest.param("1 1 -3\n", id="negative-count"),
    pytest.param("1 1 1\n0 0 -1.0\n0 0 -1.0\n", id="extra-entry"),
    pytest.param("1 1 1\n0 0.0 -1.0\n", id="float-index"),
    pytest.param("1 1 2\n0 0 -1.0\n", id="truncated"),
    pytest.param("2 1 1\n0 0 -1.0\n", id="wrong-shape"),
    pytest.param("1 1 1\n0 1 -1.0\n", id="index-out-of-bounds"),
    pytest.param("100000000000000000000 1 0\n", id="huge-shape"),
    pytest.param(None, id="missing"),
    pytest.param("1 1 1\n0 0 -1.0\n\n\n", id="trailing-blank-lines")])
def test_run_checks_a_triplet_file_as_strictly_as_inline_triplets(tmp_path, text, capsys):
    # the last file, F1 = [-1] and blank trailing lines, is std1's F1
    path = tmp_path / "F1.txt"
    if text is not None:
        path.write_text(text)
    cfg = tmp_path / "cfg.json"
    config = {key: val for key, val in STD1.items() if key != "F1_triplets"}
    cfg.write_text(json.dumps({**config, "F1_path": str(path)}))
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"])
    err = capsys.readouterr().err
    if text is not None and text.endswith("\n\n"):
        assert code == 0 and err == ""
    else:
        assert code == 2
        assert err.startswith("validation failure in stage load: ") and str(path) in err


def test_run_rejects_unknown_solver_at_load(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**STD1, "solver": "magic"}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2
    err = capsys.readouterr().err
    # refused when the config is read, before any stage runs
    assert "'solver'" in err and "in stage" not in err


def test_run_rejects_zero_step_count_at_load(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({**STD1, "m": 0}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2
    err = capsys.readouterr().err
    assert "'m'" in err and "in stage" not in err


@pytest.mark.parametrize("argv, key", [(["--seed", "-1", "bounds"], "'seed'"),
                                       (["run", "--tol", "nan"], "'tol'")])
def test_command_line_overrides_are_checked_at_load(std1_config, tmp_path, capsys, argv, key):
    # the overrides join the file's keys before from_dict checks them all
    out = tmp_path / "o"
    assert main(["--config", str(std1_config), "--out", str(out), *argv]) == 2
    err = capsys.readouterr().err
    assert key in err and "in stage" not in err
    assert not out.exists()


def test_gen_rejects_negative_seed(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["--out", str(out), "--seed", "-3", "gen",
                 "--n", "2", "--s", "2", "--K", "0.3"]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_gen_refuses_a_config_run_would_refuse(tmp_path, capsys):
    out = tmp_path / "inst"
    assert main(["--out", str(out), "gen", "--n", "2", "--s", "2", "--K", "0.3",
                 "--T", "-1", "--epsilon", "0"]) == 2
    assert "'T'" in capsys.readouterr().err
    assert not out.exists()


def test_run_refuses_an_h_key_at_load(tmp_path, capsys):
    # h = T/m is derived: half the chosen step, 0.0625, once ended the march at t = 0.5
    inst = tmp_path / "inst"
    assert main(["--out", str(inst), "--seed", "7", "gen",
                 "--n", "4", "--s", "2", "--K", "0.3"]) == 0
    raw = json.loads((inst / "instance.json").read_text())
    (inst / "instance.json").write_text(json.dumps({**raw, "h": 0.0625}))
    capsys.readouterr()
    assert main(["--config", str(inst / "instance.json"), "--out", str(tmp_path / "o"),
                 "run"]) == 2
    err = capsys.readouterr().err
    assert "unknown config keys: ['h']" in err and "in stage" not in err


def test_command_line_overrides_reach_the_report(std1_config, tmp_path):
    out = tmp_path / "o"
    assert main(["--config", str(std1_config), "--out", str(out), "--seed", "5", "--force",
                 "run", "--solver", "iterative", "--tol", "1e-11",
                 "--emit-blocks", str(tmp_path / "blocks")]) == 0
    config = json.loads((out / "report.json").read_text())["config"]
    assert config["seed"] == 5 and config["force"] is True
    assert config["solver"] == "iterative" and config["tol"] == 1e-11
    assert config["emit_blocks"] == str(tmp_path / "blocks")


def test_run_missing_config_is_validation_error(tmp_path):
    assert main(["--out", str(tmp_path), "run"]) == 2


@pytest.mark.parametrize("kind", ["missing", "directory", "truncated", "not_an_object"])
def test_run_unreadable_config_is_validation_error(tmp_path, kind, capsys):
    cfg = {"missing": tmp_path / "absent.json", "directory": tmp_path,
           "truncated": tmp_path / "cut.json", "not_an_object": tmp_path / "five.json"}[kind]
    if kind == "truncated":
        cfg.write_text(json.dumps(STD1)[:20])
    elif kind == "not_an_object":
        cfg.write_text("5")
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2
    assert capsys.readouterr().err.startswith("validation failure")


def test_run_tiny_nonlinearity_passes(tmp_path):
    # K = 2e-300: the rescaled state is ~1e-300, so every squared norm of the
    # cascade, the embedding and the marching solution would underflow unscaled
    cfg = tmp_path / "tiny_f2.json"
    cfg.write_text(json.dumps({**STD1, "F2_triplets": [[0, 0, 1e-300]]}))
    out = tmp_path / "o"
    assert main(["--config", str(cfg), "--out", str(out), "run"]) == 0
    assert json.loads((out / "report.json").read_text())["status"] == "pass"


@pytest.mark.parametrize("extra", [{"eta": 5.0}, {"epsilon": 0.5}])
def test_hpm_selects_the_order_run_selects(tmp_path, extra):
    # hpm shares run's first four stages: the same order, the same refusals
    cfg = tmp_path / "gen2.json"
    ode = generate_instance(2, 1, 0.1, 3)
    cfg.write_text(json.dumps({
        "n": 2, "T": 1.0, "epsilon": 1e-2, "u_in": ode.u_in.tolist(),
        "F1_triplets": [list(t) for t in ode.F1.entries()],
        "F2_triplets": [list(t) for t in ode.F2.entries()], **extra}))
    code_hpm = main(["--config", str(cfg), "--out", str(tmp_path / "h"), "hpm"])
    code_run = main(["--config", str(cfg), "--out", str(tmp_path / "r"), "run"])
    assert code_hpm == code_run
    if code_run in (0, 1):
        with open(tmp_path / "h" / "hpm.csv") as fh:
            c_hpm = max(int(row["i"]) for row in csv.DictReader(fh))
        report = json.loads((tmp_path / "r" / "report.json").read_text())
        assert c_hpm == report["parameters"]["c"]


def test_run_refuses_long_horizon_before_integrating(tmp_path, capsys):
    # std1 at T = 1e6 samples a grid of 10^7 reference steps
    cfg = tmp_path / "long.json"
    cfg.write_text(json.dumps({**STD1, "T": 1e6}))
    t0 = time.perf_counter()
    code = main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"])
    assert time.perf_counter() - t0 < 1.0
    assert code == 2
    err = capsys.readouterr().err
    assert "stage reference" in err and "grid steps exceed the cap" in err


def test_run_tiny_epsilon_does_not_overflow_the_factorial(tmp_path):
    # epsilon = 1e-300 picks a Taylor order k >= 170, past float((k+1)!)
    cfg = tmp_path / "tiny.json"
    cfg.write_text(json.dumps({**STD1, "epsilon": 1e-300}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) in (0, 1, 2)


def test_run_refuses_an_infinite_Omega_in_stage_parameters(tmp_path, capsys):
    # tol = 5e-324 is a positive delta, but 50 m (c+1)(c+2) g / delta overflows
    cfg = tmp_path / "tiny_tol.json"
    cfg.write_text(json.dumps({**STD1, "tol": 5e-324}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2
    assert capsys.readouterr().err.startswith(
        "validation failure in stage parameters: Omega = 50 m (c+1)(c+2) g / delta = inf")


def test_run_huge_F1_refused_by_the_rk4_cap(tmp_path, capsys):
    # squaring F1 = [[-1e300]] in the normality check must not overflow
    cfg = tmp_path / "huge.json"
    cfg.write_text(json.dumps({**STD1, "F1_triplets": [[0, 0, -1e300]]}))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 2
    err = capsys.readouterr().err
    assert "in stage reference" in err and "grid steps exceed the cap" in err


def test_run_maps_memory_error_to_exit_3(std1_config, tmp_path, monkeypatch, capsys):
    def out_of_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(hpmsim.marching, "solve_marching", out_of_memory)
    code = main(["--config", str(std1_config), "--out", str(tmp_path / "o"), "run"])
    assert code == 3
    last = capsys.readouterr().err.strip().splitlines()[-1]
    assert last.startswith("unexpected MemoryError in stage solve")


def test_a_bound_violation_exits_1_and_names_its_stage(std1_config, tmp_path, monkeypatch,
                                                      capsys):
    def violated(*args, **kwargs):
        raise BoundViolation("entries outside the block bidiagonal structure")

    monkeypatch.setattr(hpmsim.embedding, "structural_report", violated)
    code = main(["--config", str(std1_config), "--out", str(tmp_path / "o"), "run"])
    assert code == 1
    assert capsys.readouterr().err == ("bound violation in stage embed: entries outside "
                                       "the block bidiagonal structure\n")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_nan_residual_is_refused_at_stage_solve(tmp_path, capsys):
    # ||A h|| = 922: the Taylor terms of the one step overflow, and the
    # residual reads NaN, which no comparison with the target rejects
    raw = {**STD1, "T": 200.0, "m": 1, "k": 1500, "force": True}
    with pytest.raises(NumericalError, match="residual nan") as info:
        run(RunConfig.from_dict(raw))
    assert info.value.stage == "solve"
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps(raw))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "run"]) == 3
    assert "in stage solve" in capsys.readouterr().err


@pytest.mark.parametrize("T, m", [(200.0, 1), (800.0, 4)])
def test_overflowing_march_prints_only_its_refusal(tmp_path, T, m):
    # ||A h|| = 922 in each step; in a fresh interpreter, where numpy's
    # warnings would reach stderr, the refusal is the one line there
    cfg = tmp_path / "overflow.json"
    cfg.write_text(json.dumps({**STD1, "T": T, "m": m, "k": 1500, "force": True}))
    src = str(Path(hpmsim.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "hpmsim.cli", "--config", str(cfg),
                           "--out", str(tmp_path / "o"), "run"],
                          capture_output=True, text=True, env={"PYTHONPATH": src},
                          timeout=120)
    assert done.returncode == 3
    [line] = done.stderr.splitlines()
    assert line.startswith("numerical failure in stage solve: solver 'forward' "
                           "residual nan misses target")


def test_sweep_csv(std1_config, tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(std1_config), "--out", str(out),
                 "sweep", "--param", "c", "--values", "0,1,2"])
    assert code == 0
    with open(out / "sweep_c.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["value"] for row in rows] == ["0", "1", "2"]
    errs = [float(row["measured_error"]) for row in rows]
    assert errs == sorted(errs, reverse=True)


def test_sweep_empty_values_header_only(std1_config, tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(std1_config), "--out", str(out),
                 "sweep", "--param", "epsilon", "--values", ""])
    assert code == 0
    lines = (out / "sweep_epsilon.csv").read_text().strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("value,measured_error,bound")


@pytest.mark.parametrize("param, values, token", [
    ("c", "1,a", "'a'"), ("c", "1.5", "'1.5'"), ("epsilon", "0.01,,0.02", "''")])
def test_sweep_unparsable_value_is_validation_error(std1_config, tmp_path, capsys,
                                                    param, values, token):
    code = main(["--config", str(std1_config), "--out", str(tmp_path / "out"),
                 "sweep", "--param", param, "--values", values])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("validation failure") and token in err
    assert "Traceback" not in err


def test_embed_outputs(std1_config, tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(std1_config), "--out", str(out),
                 "embed", "--order", "1"])
    assert code == 0
    A = read_triplets(out / "A.txt")
    # rescaled system: F2' = 0.2/0.8 = 0.25
    assert np.array_equal(A.toarray(), np.array([[-1.0, 0.25], [0.0, -2.0]]))
    y = read_vector(out / "y_in.txt")
    assert y == pytest.approx([0.4, 0.16])
    sidecar = json.loads((out / "embed.json").read_text())
    assert sidecar["N"] == 2
    assert sidecar["beta"] == [1, 1]
    assert sidecar["offsets"] == [0, 1]


def test_embed_without_an_order_or_c_is_refused(std1_config, tmp_path, capsys):
    code = main(["--config", str(std1_config), "--out", str(tmp_path / "out"), "embed"])
    assert code == 2
    assert capsys.readouterr().err == ("validation failure: embed needs --order or a c "
                                       "override in the config\n")


def test_embed_takes_its_order_from_the_config_c(tmp_path):
    # without --order, embed reads the config's c and writes what --order c does
    cfg = tmp_path / "c2.json"
    cfg.write_text(json.dumps({**STD1, "c": 2}))
    by_c, by_order = tmp_path / "by_c", tmp_path / "by_order"
    assert main(["--config", str(cfg), "--out", str(by_c), "embed"]) == 0
    assert main(["--config", str(cfg), "--out", str(by_order), "embed", "--order", "2"]) == 0
    for name in ("A.txt", "y_in.txt", "embed.json"):
        assert (by_c / name).read_bytes() == (by_order / name).read_bytes()
    assert json.loads((by_c / "embed.json").read_text())["c"] == 2


def test_embed_reads_triplet_files(tmp_path):
    out = tmp_path / "gen"
    assert main(["--out", str(out), "--seed", "3", "gen",
                 "--n", "2", "--s", "2", "--K", "0.3"]) == 0
    cfg = out / "instance.json"
    out2 = tmp_path / "emb"
    assert main(["--config", str(cfg), "--out", str(out2),
                 "embed", "--order", "2"]) == 0
    sidecar = json.loads((out2 / "embed.json").read_text())
    assert sidecar["N"] == 22


def test_embed_sidecar_reports_the_norm_bracket(std1_config, tmp_path):
    # norm_A is the bracket's upper end, the value a run takes m from
    out = tmp_path / "out"
    assert main(["--config", str(std1_config), "--out", str(out), "embed", "--order", "3"]) == 0
    sidecar = json.loads((out / "embed.json").read_text())
    A = read_triplets(out / "A.txt").toarray()
    assert sidecar["norm_A_lower"] <= np.linalg.norm(A, 2) <= sidecar["norm_A"]
    assert not {"norm_A_upper", "norm_A_tol"} & set(sidecar)


def test_embed_names_the_stage_that_refuses(std1_config, tmp_path, capsys):
    # order 17 embeds std1 in 2^18 - 2 dimensions, over the default cap; the
    # refusal names the stage that `run` would name
    code = main(["--config", str(std1_config), "--out", str(tmp_path / "out"),
                 "embed", "--order", "17"])
    assert code == 2
    assert capsys.readouterr().err == ("validation failure in stage embed: embedded "
                                       "dimension 262126 exceeds cap 200000\n")


def test_hpm_csv(std1_config, tmp_path):
    cfg = json.loads(std1_config.read_text())
    cfg["c"] = 2
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["--config", str(path), "--out", str(out), "hpm"]) == 0
    with open(out / "hpm.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"t", "i", "norm_nu_i", "bound_K_pow"}
    for row in rows:
        assert float(row["norm_nu_i"]) <= float(row["bound_K_pow"]) * (1 + 1e-9)


def test_hpm_defaults_to_selected_order(std1_config, tmp_path):
    out = tmp_path / "out"
    assert main(["--config", str(std1_config), "--out", str(out), "hpm"]) == 0
    with open(out / "hpm.csv") as fh:
        rows = list(csv.DictReader(fh))
    # STD1 selection caps the order at 3: orders 0..3 appear on the grid
    assert {row["i"] for row in rows} == {"0", "1", "2", "3"}


def test_bounds_json(std1_config, tmp_path):
    out = tmp_path / "out"
    code = main(["--config", str(std1_config), "--out", str(out), "bounds"])
    assert code == 0
    rows = json.loads((out / "bounds.json").read_text())
    names = {row["check"] for row in rows}
    assert any(name.startswith("scalar_decay") for name in names)
    assert any(name.startswith("taylor_power_error") for name in names)
    assert "normalized_difference" in names
    for row in rows:
        assert {"precondition_ok", "measured", "bound", "pass"} <= set(row)
        if row["precondition_ok"]:
            assert row["pass"], row["check"]


def test_run_emit_blocks(std1_config, tmp_path):
    out = tmp_path / "out"
    blocks = tmp_path / "blocks"
    code = main(["--config", str(std1_config), "--out", str(out),
                 "run", "--solver", "forward", "--emit-blocks", str(blocks)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    m, N = report["parameters"]["m"], report["parameters"]["N"]
    files = sorted(blocks.glob("x_*_0.txt"))
    assert len(files) == m + 1
    first = read_vector(files[0])
    assert len(first) == N
    # block 0 is the initial embedded vector: u_in' = 0.4 leads
    assert first[0] == pytest.approx(0.4, abs=1e-12)


@pytest.mark.parametrize("flag", ["--out", "--emit-blocks"])
@pytest.mark.parametrize("below", [False, True])
def test_an_output_path_through_a_file_is_refused_before_the_run(
        std1_config, tmp_path, capsys, monkeypatch, flag, below):
    # the path names an existing file, or lies below one: exit 2 with one
    # line that names it, before the march, and nothing written
    taken = tmp_path / "taken"
    taken.write_text("kept\n")
    path = taken / "blocks" if below else taken

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran")

    monkeypatch.setattr(hpmsim.marching, "solve_marching", no_solve)
    out = path if flag == "--out" else tmp_path / "out"
    argv = ["--config", str(std1_config), "--out", str(out), "run"]
    if flag == "--emit-blocks":
        argv += ["--emit-blocks", str(path)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(path) in err and "Traceback" not in err
    assert ("in stage load" in err) is (flag == "--emit-blocks")
    assert taken.read_text() == "kept\n" and not (tmp_path / "out").exists()


def test_gen_roundtrip_run(tmp_path):
    out = tmp_path / "inst"
    assert main(["--out", str(out), "--seed", "7", "gen",
                 "--n", "2", "--s", "2", "--K", "0.3"]) == 0
    code = main(["--config", str(out / "instance.json"),
                 "--out", str(tmp_path / "run"), "run"])
    assert code == 0
    report = json.loads((tmp_path / "run" / "report.json").read_text())
    assert report["nonlinearity"]["K"] == pytest.approx(0.3, abs=1e-9)
