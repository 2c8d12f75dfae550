import json
import math
from dataclasses import replace

import numpy as np
import pytest

from sparsecox import BarConfig, bar, fit_bar, load_dataset, screening, simulate
from sparsecox.cli import main, parse_grid
from sparsecox.sim import SimScenario


@pytest.fixture
def scenario_file(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "n=150\np=8\nbeta0=0.8,0,0.9,0,1.0\ndesign=ar1:0.5\ncensoring=0.2\nseed=21\n"
    )
    return cfg


def test_parse_grid():
    g = parse_grid("1e-3:1e2:log25")
    assert g.size == 25
    assert g[0] == pytest.approx(1e-3) and g[-1] == pytest.approx(100.0)
    np.testing.assert_allclose(parse_grid("0.5,1,2"), [0.5, 1.0, 2.0])
    np.testing.assert_allclose(parse_grid("0:1:lin3"), [0.0, 0.5, 1.0])


def test_simulate_then_fit_round_trip(tmp_path, scenario_file, capsys):
    surv = tmp_path / "s.csv"
    design = tmp_path / "d.dat"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-surv", str(surv),
                 "--out-design", str(design)]) == 0
    out = capsys.readouterr().out
    assert "realized censoring rate" in out

    result = tmp_path / "fit.json"
    code = main(["fit", "--surv", str(surv), "--design", str(design),
                 "--lambda-rule", "bic", "--out", str(result)])
    assert code == 0
    payload = json.loads(result.read_text())
    assert payload["converged"] is True
    assert payload["df"] == len(payload["support"])
    assert payload["version"]

    # CLI output matches the direct library call bit for bit
    ds = load_dataset(surv, design, "dense-csv")
    fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
    assert payload["support"] == [int(j) + 1 for j in fit.support]
    for k, v in payload["coefficients"].items():
        assert v == fit.beta[int(k) - 1]


def test_simulate_deterministic_bytes(tmp_path, scenario_file):
    files = []
    for tag in ("a", "b"):
        surv = tmp_path / f"s_{tag}.csv"
        design = tmp_path / f"d_{tag}.dat"
        assert main(["simulate", "--scenario", str(scenario_file), "--seed", "5",
                     "--out-surv", str(surv), "--out-design", str(design)]) == 0
        files.append((surv.read_bytes(), design.read_bytes()))
    assert files[0] == files[1]


def test_fit_empty_sparse_design(tmp_path):
    surv = tmp_path / "s.csv"
    surv.write_text("id,time,status\n1,1.0,1\n2,2.0,1\n")
    design = tmp_path / "d.coord"
    design.write_text("2 3 0\n")
    result = tmp_path / "fit.json"
    code = main(["fit", "--surv", str(surv), "--design", str(design),
                 "--out", str(result)])
    assert code == 0
    payload = json.loads(result.read_text())
    assert payload["support"] == []
    assert payload["coefficients"] == {}


def test_fit_with_screening_caps_support(tmp_path, scenario_file):
    surv = tmp_path / "s.csv"
    design = tmp_path / "d.dat"
    main(["simulate", "--scenario", str(scenario_file), "--out-surv", str(surv),
          "--out-design", str(design)])
    result = tmp_path / "fit.json"
    code = main(["fit", "--surv", str(surv), "--design", str(design),
                 "--screen-m", "3", "--out", str(result)])
    assert code in (0, 2)
    payload = json.loads(result.read_text())
    assert len(payload["support"]) <= 3


def test_bench_writes_report(tmp_path, scenario_file, capsys):
    out = tmp_path / "report.csv"
    code = main(["bench", "--scenario", str(scenario_file), "--method", "bic-coxbar",
                 "--reps", "2", "--seed", "3", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("method,reps,SSB,FP,FN,TM,ACR,AIC,BIC,mean_runtime_ms")
    assert lines[0].endswith("failures")
    assert lines[1].startswith("bic-coxbar,2,")


def test_bench_rejects_zero_reps(tmp_path, scenario_file, capsys):
    code = main(["bench", "--scenario", str(scenario_file), "--method", "bic-coxbar",
                 "--reps", "0", "--out", str(tmp_path / "r.csv")])
    assert code == 1
    assert "error" in capsys.readouterr().err


def test_path_from_scenario(tmp_path, scenario_file):
    out = tmp_path / "path.csv"
    code = main(["path", "--scenario", str(scenario_file), "--axis", "xi",
                 "--grid", "0.1:10:log5", "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 6


def test_path_threads_invariant(tmp_path, scenario_file):
    outs = []
    for tag, threads in (("t1", "1"), ("t2", "2")):
        out = tmp_path / f"path_{tag}.csv"
        code = main(["path", "--scenario", str(scenario_file), "--axis", "lambda",
                     "--grid", "2,5,9", "--threads", threads, "--out", str(out)])
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_error_exit_code(tmp_path, capsys):
    code = main(["fit", "--surv", str(tmp_path / "missing.csv"),
                 "--design", str(tmp_path / "missing.dat")])
    assert code == 1
    assert "error:" in capsys.readouterr().err


def test_bad_threads(tmp_path, scenario_file, capsys):
    code = main(["bench", "--scenario", str(scenario_file), "--method", "bic-coxbar",
                 "--reps", "1", "--threads", "0", "--out", str(tmp_path / "r.csv")])
    assert code == 1


@pytest.fixture
def simulated_files(tmp_path, scenario_file):
    surv, design = tmp_path / "s.csv", tmp_path / "d.dat"
    assert main(["simulate", "--scenario", str(scenario_file), "--out-surv", str(surv),
                 "--out-design", str(design)]) == 0
    return surv, design


def test_fit_exit_code_2_when_ridge_start_does_not_converge(tmp_path, simulated_files,
                                                             monkeypatch):
    surv, design = simulated_files
    ridge = bar.fit_ridge
    monkeypatch.setattr(bar, "fit_ridge", lambda *args: replace(ridge(*args), converged=False))
    result = tmp_path / "fit.json"
    code = main(["fit", "--surv", str(surv), "--design", str(design), "--out", str(result)])
    assert code == 2
    assert json.loads(result.read_text())["converged"] is False


def test_fit_exit_code_1_when_polish_loses_likelihood(simulated_files, monkeypatch, capsys):
    surv, design = simulated_files
    solve = screening.ccd_minimize
    monkeypatch.setattr(screening, "ccd_minimize",
                        lambda *args: replace(solve(*args), loglik=-math.inf))
    code = main(["fit", "--surv", str(surv), "--design", str(design), "--screen-m", "3"])
    assert code == 1
    assert "polish decreased the likelihood" in capsys.readouterr().err
