"""Config parsing, artifact layout, and reproducibility of the runner."""

import numpy as np
import pytest

from lowrankpde.cli import (AlphaSpec, ConfigError, RunConfig, config_model,
                            config_source, main, parse_config, run,
                            serialize_config)

MINIMAL = "experiment = heat-diagonal\n"

ROTATION = """\
experiment = energy-audit
N = 8
r = 2
T = 0.2
n_steps = 20
seed = 11

[alpha]
kind = rotation
lambda1 = 1.0
lambda2 = 0.25
omega = 1.5

[source]
term = cosine:0.5:2.0 | p = 1:1.0,3:0.25 | q = 2:1.0
term = constant:1.0 | p = 2:0.5 | q = 1:-1.0
"""


# ---------------------------------------------------------------------------
# parsing


def test_parse_defaults():
    cfg = parse_config(MINIMAL)
    assert cfg == RunConfig()
    assert cfg.N == 32 and cfg.r == 2 and cfg.T == 0.1 and cfg.n_steps == 100
    assert cfg.method == "als" and cfg.seed == 0 and cfg.output_dir == "out"
    assert cfg.alpha == AlphaSpec()
    assert cfg.source == ()


def test_parse_comments_and_blanks():
    cfg = parse_config("# header\n\nexperiment = heat-diagonal  # trailing\nN = 16\n")
    assert cfg.N == 16


def test_parse_rotation_and_source():
    cfg = parse_config(ROTATION)
    assert cfg.alpha.kind == "rotation"
    assert cfg.alpha.lambda2 == 0.25 and cfg.alpha.omega == 1.5
    assert len(cfg.source) == 2
    term = cfg.source[0]
    assert term.profile == "cosine" and term.scale == 0.5 and term.omega == 2.0
    assert term.p == ((1, 1.0), (3, 0.25)) and term.q == ((2, 1.0),)
    model = config_model(cfg)
    assert model.mu == pytest.approx(0.25)
    src = config_source(cfg)
    value = src.value(0.0)
    assert value[0, 1] == pytest.approx(0.5 * 1.0)      # cosine term at t=0
    assert value[1, 0] == pytest.approx(-0.5)           # constant term


def test_unknown_key_reports_line():
    with pytest.raises(ConfigError, match="line 3") as err:
        parse_config("experiment = heat-diagonal\nN = 8\nbogus = 1\n")
    assert err.value.line == 3


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config("experiment = heat-diagonal\nN = 8\nN = 9\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"line 2"):
        parse_config("experiment = heat-diagonal\n[extras]\n")


def test_alpha_must_be_positive_definite():
    bad = "experiment = anisotropic\n[alpha]\nkind = constant\na11 = 1.0\na12 = 2.0\na22 = 1.0\n"
    with pytest.raises(ConfigError, match="not positive definite"):
        parse_config(bad)


def test_bad_term_syntax():
    with pytest.raises(ConfigError, match="line 3"):   # three fields required
        parse_config("experiment = anisotropic\n[source]\nterm = constant:1.0 | p = 1:1.0\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = anisotropic\n[source]\nterm = wiggle:1.0 | p = 1:1 | q = 1:1\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = anisotropic\n[source]\nterm = constant:1 | p = x:1 | q = 1:1\n")


def test_source_mode_range_checked():
    with pytest.raises(ConfigError, match="outside"):
        parse_config("experiment = anisotropic\nN = 4\n[source]\n"
                     "term = constant:1.0 | p = 5:1.0 | q = 1:1.0\n")


def test_heat_diagonal_preset_restrictions():
    with pytest.raises(ConfigError, match="diagonal"):
        parse_config("experiment = heat-diagonal\n[alpha]\nkind = constant\n"
                     "a11 = 1.0\na12 = 0.1\na22 = 1.0\n")
    with pytest.raises(ConfigError, match="homogeneous"):
        parse_config("experiment = heat-diagonal\n[source]\n"
                     "term = constant:1.0 | p = 1:1.0 | q = 1:1.0\n")


def test_validation_bounds():
    with pytest.raises(ConfigError):
        parse_config("experiment = heat-diagonal\nr = 40\nN = 8\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = heat-diagonal\nT = 0.0\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = heat-diagonal\nn_steps = 0\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = mystery\n")
    with pytest.raises(ConfigError):
        parse_config("experiment = heat-diagonal\nmethod = rk4\n")


def test_serialize_round_trip():
    for text in (MINIMAL, ROTATION):
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg


# ---------------------------------------------------------------------------
# the runner


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _quick_heat(out_dir, n=8, n_steps=10):
    return (f"experiment = heat-diagonal\nN = {n}\nr = 2\nT = 0.05\n"
            f"n_steps = {n_steps}\noutput_dir = {out_dir}\n")


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    cfg = parse_config(_quick_heat(out))
    assert run(cfg, quiet=True) == 0
    for name in ("trajectory.csv", "diagnostics.csv", "report.csv", "run.log"):
        assert (out / name).exists(), name
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "step,t,h_norm,v_norm,sigma_r,galerkin_residual,objective"
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 12                       # header + initial + 10 steps
    log = (out / "run.log").read_text()
    assert "status: 0" in log and "passed" in log


def test_run_is_byte_reproducible(tmp_path):
    cfg_a = parse_config(_quick_heat(tmp_path / "a"))
    cfg_b = parse_config(_quick_heat(tmp_path / "b"))
    assert run(cfg_a, quiet=True) == 0
    assert run(cfg_b, quiet=True) == 0
    for name in ("trajectory.csv", "diagnostics.csv", "report.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_run_default_heat_preset_meets_bound(tmp_path):
    # the all-defaults run: N=32, r=2, T=0.1, 100 steps against the decayed
    # closed form, final error below 5e-3
    out = tmp_path / "preset"
    cfg = parse_config(MINIMAL + f"output_dir = {out}\n")
    assert run(cfg, quiet=True) == 0
    report = dict(line.split(",", 1)
                  for line in (out / "report.csv").read_text().splitlines()[1:])
    assert float(report["final_error"]) < 5e-3
    assert report["passed"] == "true"


def test_run_numerical_failure_exit_code(tmp_path, monkeypatch):
    import lowrankpde.cli as cli_mod
    from lowrankpde.stepping import InnerSolveError

    def explode(*args, **kwargs):
        raise InnerSolveError("step 3 (t = 0.03): iterative solve stalled")

    monkeypatch.setattr(cli_mod, "integrate", explode)
    out = tmp_path / "broken"
    cfg = parse_config(_quick_heat(out))
    assert run(cfg, quiet=True) == 3
    log = (out / "run.log").read_text()
    assert "status: 3" in log and "step 3" in log
    assert not (out / "trajectory.csv").exists()


@pytest.mark.parametrize("quiet", [True, False])
def test_run_logs_package_warnings(tmp_path, monkeypatch, capsys, quiet):
    import logging

    import lowrankpde.cli as cli_mod
    integrate = cli_mod.integrate

    def warn_then_integrate(*args, **kwargs):
        logging.getLogger("lowrankpde.stepping").warning("sweep cap %d reached", 100)
        return integrate(*args, **kwargs)

    monkeypatch.setattr(cli_mod, "integrate", warn_then_integrate)
    out = tmp_path / "warned"
    assert run(parse_config(_quick_heat(out)), quiet=quiet) == 0
    assert "warning: sweep cap 100 reached" in (out / "run.log").read_text().splitlines()
    err = capsys.readouterr().err
    assert ("sweep cap" in err) != quiet
    logger = logging.getLogger("lowrankpde")
    assert logger.propagate and not logger.handlers


def test_run_detects_violation(tmp_path):
    # a single huge step cannot meet the preset error bound
    out = tmp_path / "coarse"
    cfg = parse_config(f"experiment = heat-diagonal\nN = 8\nr = 2\nT = 0.1\n"
                       f"n_steps = 1\noutput_dir = {out}\n")
    assert run(cfg, quiet=True) == 1
    log = (out / "run.log").read_text()
    assert "violation" in log and "status: 1" in log


def test_main_config_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.cfg")
    assert main(["run", missing]) == 2
    bad = _write(tmp_path, "experiment = heat-diagonal\nwhat = 1\n")
    assert main(["run", bad]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert not (tmp_path / "out").exists()       # nothing written on exit 2


def test_main_overrides_and_gnuplot(tmp_path):
    cfg_path = _write(tmp_path, _quick_heat(tmp_path / "ignored"))
    out = tmp_path / "chosen"
    assert main(["run", cfg_path, "--out", str(out), "--quiet", "--gnuplot"]) == 0
    assert (out / "trajectory.gp").exists()
    assert not (tmp_path / "ignored").exists()


def test_main_seed_override_changes_random_experiment(tmp_path):
    text = (f"experiment = energy-audit\nN = 8\nr = 2\nT = 0.1\nn_steps = 10\n"
            f"output_dir = {tmp_path / 'e0'}\n"
            "\n[alpha]\nkind = rotation\nlambda1 = 1.0\nlambda2 = 0.5\nomega = 1.0\n")
    cfg_path = _write(tmp_path, text)
    assert main(["run", cfg_path, "--quiet"]) == 0
    assert main(["run", cfg_path, "--quiet", "--seed", "99",
                 "--out", str(tmp_path / "e1")]) == 0
    a = (tmp_path / "e0" / "trajectory.csv").read_text()
    b = (tmp_path / "e1" / "trajectory.csv").read_text()
    assert a != b                                # different random start


def test_equivalence_experiment_report(tmp_path):
    out = tmp_path / "eq"
    cfg = parse_config(f"experiment = equivalence\ntrials = 6\nseed = 4\n"
                       f"output_dir = {out}\n")
    assert run(cfg, quiet=True) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "property,trials,violations,worst_ratio"
    assert any("single_sweep_vs_splitting" in line for line in report[1:])
    # no trajectory for trial-based experiments
    assert not (out / "trajectory.csv").exists()


def test_geometry_experiment_report(tmp_path):
    out = tmp_path / "geo"
    cfg = parse_config(f"experiment = geometry-suites\nN = 6\nr = 2\ntrials = 20\n"
                       f"output_dir = {out}\n")
    assert run(cfg, quiet=True) == 0
    report = (out / "report.csv").read_text()
    for key in ("curvature.", "projection.", "tangency."):
        assert key in report


def test_convergence_experiment_report(tmp_path):
    out = tmp_path / "conv"
    cfg = parse_config(f"experiment = convergence-h\nN = 8\nr = 2\nT = 0.05\n"
                       f"n_steps = 32\noutput_dir = {out}\n")
    assert run(cfg, quiet=True) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "parameter,error,observed_order"
    assert len(lines) == 6                       # five step counts
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b < a for a, b in zip(errors, errors[1:]))
