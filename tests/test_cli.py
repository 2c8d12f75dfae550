import argparse
import json
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from sparsecox import (BarConfig, bar, fit_bar, load_dataset, screening, simulate, standardize,
                       to_original_scale)
from sparsecox.cli import build_parser, main, parse_grid
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
    # log10(0) is -inf, and logspace from it gives nan points
    for spec in ("0:1:log4", "-1:1:log4", "1:0:log4"):
        with pytest.raises(ValueError, match="log grid needs positive ends"):
            parse_grid(spec)
    for spec in ("1:2", "1:2:log", "1:2:logx", "1:2:sqrt4", "a:2:lin3", "1:2:3:log4",
                 "1:2:lin-3", "1,x"):
        with pytest.raises(ValueError, match=re.escape(
                f"grid {spec!r} is not a comma list, a:b:logN or a:b:linN")):
            parse_grid(spec)


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


def test_standardized_fit_and_path_report_input_scale(tmp_path, simulated_files):
    surv, design = simulated_files
    X = np.loadtxt(design, delimiter=",", skiprows=1)
    X[:, 1] *= 3.0
    scaled = tmp_path / "scaled.csv"
    header = "id," + ",".join(f"x{j}" for j in range(1, X.shape[1]))
    np.savetxt(scaled, X, delimiter=",", header=header, comments="",
               fmt=["%d"] + ["%.17g"] * (X.shape[1] - 1))
    fits = {}
    for name, path in (("raw", design), ("scaled", scaled)):
        out = tmp_path / f"{name}.json"
        assert main(["fit", "--surv", str(surv), "--design", str(path),
                     "--standardize", "center-and-scale", "--out", str(out)]) == 0
        fits[name] = json.loads(out.read_text())
    raw, scaled_fit = fits["raw"], fits["scaled"]
    assert 1 in raw["support"] and scaled_fit["support"] == raw["support"]
    assert scaled_fit["loglik"] == pytest.approx(raw["loglik"], rel=1e-9)
    for k, v in raw["coefficients"].items():
        expected = v / 3.0 if k == "1" else v
        assert scaled_fit["coefficients"][k] == pytest.approx(expected, rel=1e-6)

    # the library's standardized fit, mapped back, is what the CLI reports
    ds = standardize(load_dataset(surv, scaled, "dense-csv"), "center-and-scale")
    fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
    beta = to_original_scale(ds, fit.beta)
    assert scaled_fit["coefficients"] == {str(j + 1): float(beta[j]) for j in fit.support}
    assert scaled_fit["bic"] == fit.bic

    out = tmp_path / "path.csv"
    assert main(["path", "--surv", str(surv), "--design", str(scaled),
                 "--standardize", "center-and-scale", "--axis", "xi", "--grid", "1",
                 "--out", str(out)]) == 0
    row = out.read_text().splitlines()[1].split(",")
    np.testing.assert_array_equal([float(v) for v in row[7:]], beta)


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


@pytest.mark.parametrize("flags, message", [
    (["--lambda-rule", "cbic"], "unrecognized arguments: --lambda-rule"),
    (["--lambda", "50"], "picks its own lambda"),
    (["--screen-m", "3"], "does not screen"),
])
def test_bench_refuses_tuning_its_method_ignores(tmp_path, scenario_file, capsys, flags, message):
    out = tmp_path / "r.csv"
    code = main(["bench", "--scenario", str(scenario_file), "--method", "bic-coxbar",
                 "--reps", "1", "--out", str(out)] + flags)
    assert code == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, flags, message", [
    ("fit", ["--lambda-rule", "cbic", "--lambda", "0.5"], "--lambda-rule cbic would be ignored"),
    ("fit", ["--format", "dense-csv"], "unrecognized arguments: --format"),
    ("path", ["--axis", "xi", "--xi", "7"], "--xi would be ignored"),
    ("path", ["--axis", "lambda", "--lambda-rule", "cbic"], "--lambda-rule would be ignored"),
    ("path", ["--axis", "lambda", "--lambda", "3"], "--lambda-rule would be ignored"),
    ("path", ["--axis", "xi", "--lambda-rule", "bic", "--lambda", "3"],
     "--lambda-rule bic would be ignored"),
    ("path", ["--axis", "xi", "--seed", "9"], "--seed draws a --scenario"),
    ("path", ["--axis", "xi", "--screen-m", "2"], "unrecognized arguments: --screen-m"),
    ("path", ["--axis", "xi", "--format", "dense-csv"], "unrecognized arguments: --format"),
])
def test_fit_and_path_refuse_tuning_they_ignore(tmp_path, simulated_files, capsys, command,
                                                flags, message):
    surv, design = simulated_files
    out = tmp_path / "out"
    argv = [command, "--surv", str(surv), "--design", str(design), "--out", str(out)]
    if command == "path":
        argv += ["--grid", "1,2"]
    assert main(argv + flags) == 1
    err = capsys.readouterr().err
    assert message in err and err.count("error:") == 1
    assert not out.exists()


@pytest.mark.parametrize("command, flags", [
    ("fit", ["--lambda", "nan"]),
    ("fit", ["--lambda", "inf"]),
    ("fit", ["--xi", "nan"]),
    ("fit", ["--xi", "inf"]),
    ("path", ["--axis", "xi", "--lambda", "nan", "--grid", "1"]),
    ("path", ["--axis", "lambda", "--grid", "0:1:log4"]),
    ("path", ["--axis", "lambda", "--grid", "1,nan"]),
])
def test_fit_and_path_refuse_non_finite_tuning(tmp_path, simulated_files, capsys, command,
                                               flags):
    # a nan lambda would give the unpenalized fit, and "lambda": NaN is not JSON
    surv, design = simulated_files
    out = tmp_path / "out"
    assert main([command, "--surv", str(surv), "--design", str(design), "--out", str(out)]
                + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not out.exists()


def test_path_refuses_scenario_with_files(tmp_path, scenario_file, simulated_files, capsys):
    surv, design = simulated_files
    out = tmp_path / "path.csv"
    assert main(["path", "--scenario", str(scenario_file), "--surv", str(surv),
                 "--design", str(design), "--axis", "xi", "--grid", "1",
                 "--out", str(out)]) == 1
    assert "either --scenario or --surv/--design" in capsys.readouterr().err
    assert not out.exists()


def test_fit_defaults_echo_config(simulated_files, capsys):
    surv, design = simulated_files
    assert main(["fit", "--surv", str(surv), "--design", str(design)]) == 0
    text = capsys.readouterr().out
    assert '"xi": 1.0,' in text and '"lambda_rule": "bic",' in text
    assert '"screen_m": null,' in text and '"standardize": "none"' in text
    assert list(json.loads(text)["config"]) == ["xi", "lambda", "lambda_rule", "screen_m",
                                                "standardize"]


def test_path_standardizes_a_simulated_dataset(tmp_path, scenario_file):
    out = tmp_path / "path.csv"
    assert main(["path", "--scenario", str(scenario_file), "--standardize", "center-and-scale",
                 "--axis", "xi", "--grid", "1", "--out", str(out)]) == 0
    ds = standardize(simulate(SimScenario.from_config(scenario_file)), "center-and-scale")
    fit = fit_bar(ds, BarConfig(lambda_rule="bic"))
    row = out.read_text().splitlines()[1].split(",")
    np.testing.assert_array_equal([float(v) for v in row[7:]], to_original_scale(ds, fit.beta))
    assert float(row[3]) == fit.loglik


def test_scenario_file_with_unknown_key_exits_1(tmp_path, scenario_file, capsys):
    scenario_file.write_text(scenario_file.read_text() + "rho=0.9\n")
    code = main(["simulate", "--scenario", str(scenario_file), "--out-surv",
                 str(tmp_path / "s.csv"), "--out-design", str(tmp_path / "d.dat")])
    assert code == 1
    assert "scenario.cfg:7: unknown key 'rho'" in capsys.readouterr().err


def test_fit_out_of_memory_exits_1_in_one_line(tmp_path, capsys):
    surv = tmp_path / "s.csv"
    surv.write_text("id,time,status\n1,1.0,1\n2,2.0,1\n")
    design = tmp_path / "d.coord"
    design.write_text("2 1000000000000000 0\n")  # the loader allocates p columns whatever nnz is
    code = main(["fit", "--surv", str(surv), "--design", str(design),
                 "--out", str(tmp_path / "fit.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "fit.json").exists()


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



@pytest.mark.parametrize("header", ["2 -1 0", "2 2 -1", "2 2 100000000000000"])
def test_fit_refuses_a_bad_sparse_header_in_one_line(tmp_path, capsys, header):
    surv = tmp_path / "s.csv"
    surv.write_text("id,time,status\n1,1.0,1\n2,2.0,1\n")
    design = tmp_path / "d.coord"
    design.write_text(header + "\n")
    code = main(["fit", "--surv", str(surv), "--design", str(design),
                 "--out", str(tmp_path / "fit.json")])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "d.coord:1: " in err and err.count("\n") == 1
    assert not (tmp_path / "fit.json").exists()

def test_fit_cbic_with_one_event_exits_1(tmp_path, capsys):
    surv = tmp_path / "s.csv"
    surv.write_text("id,time,status\n1,1.0,0\n2,2.0,1\n3,3.0,0\n4,4.0,0\n")
    design = tmp_path / "d.csv"
    design.write_text("id,x1\n1,0.5\n2,-1.0\n3,2.0\n4,0.0\n")
    code = main(["fit", "--surv", str(surv), "--design", str(design), "--lambda-rule", "cbic"])
    assert code == 1
    assert "cbic rule needs at least two events" in capsys.readouterr().err


def test_bad_threads(tmp_path, scenario_file, capsys):
    code = main(["bench", "--scenario", str(scenario_file), "--method", "bic-coxbar",
                 "--reps", "1", "--threads", "0", "--out", str(tmp_path / "r.csv")])
    assert code == 1


def test_usage_errors_exit_1_not_2(tmp_path, scenario_file, simulated_files, capsys):
    # 2 is reserved for "fit did not converge"
    surv, design = simulated_files
    fit = ["fit", "--surv", str(surv), "--design", str(design)]
    assert main(fit + ["--threads", "2"]) == 1  # fit takes no --threads
    assert main(fit + ["--bogus"]) == 1
    out = str(tmp_path / "out")
    capsys.readouterr()
    # options are never abbreviated, so --d (BAR has one reweighting exponent) and a
    # prefix of a real option are refused instead of being read as --design or --surv
    for flag in ("--d", "--sur"):
        for argv in (["fit", flag, "0.5", "--surv", str(surv), "--design", str(design),
                      "--out", out],
                     ["bench", flag, "0.5", "--scenario", str(scenario_file), "--method",
                      "bic-coxbar", "--reps", "1", "--out", out],
                     ["path", flag, "0.5", "--surv", str(surv), "--design", str(design),
                      "--axis", "xi", "--grid", "1", "--out", out]):
            assert main(argv) == 1
            assert f"unrecognized arguments: {flag} 0.5" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["fit", "--surv", str(surv)]) == 1
    assert "usage:" in capsys.readouterr().err
    for argv in (["--help"], ["--version"], ["fit", "--help"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0


def test_each_command_takes_exactly_these_options():
    # a new setting doubles what the tests must cover, so adding one edits this list
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(s for a in sub._actions for s in a.option_strings)
               for name, sub in subs.choices.items()}
    common = ["--help", "-h"]
    assert options == {
        "fit": sorted(common + ["--surv", "--design", "--standardize", "--xi", "--lambda",
                                "--lambda-rule", "--screen-m", "--out"]),
        "simulate": sorted(common + ["--scenario", "--out-surv", "--out-design", "--format",
                                     "--seed"]),
        "bench": sorted(common + ["--scenario", "--method", "--reps", "--xi", "--lambda",
                                  "--screen-m", "--seed", "--threads", "--out"]),
        "path": sorted(common + ["--scenario", "--surv", "--design", "--standardize", "--axis",
                                 "--grid", "--xi", "--lambda", "--lambda-rule", "--seed",
                                 "--threads", "--out"]),
    }


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
