"""Config parsing, artifact layout, and reproducibility of the runner."""

import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest

from lowrankpde.cli import (EXPERIMENTS, AlphaSpec, ConfigError, RunConfig, config_model,
                            config_source, main, parse_config, run,
                            serialize_config)
from lowrankpde.galerkin import rhs_mean_factors

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()

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
    p_mat, q_mat = rhs_mean_factors(config_source(cfg), 0.0, 0.5)
    mean = p_mat @ q_mat.T
    assert mean[0, 1] == pytest.approx(0.5 * np.sin(1.0))   # cosine term, mean over [0, 0.5]
    assert mean[1, 0] == pytest.approx(-0.5)                # constant term


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


def test_alpha_accepted_only_if_the_model_accepts_it():
    # near-singular tensors, where a11 > 0 and a11 a22 > a12^2 can hold in
    # floating point while the smallest eigenvalue rounds to <= 0: a config
    # that parses must give a model, not a ValueError once the run starts
    rng = np.random.default_rng(3)
    cases = [(5153.462622521849, 590.2493817367771, 67.60393121278926)]
    for _ in range(300):
        a11, a22 = 10.0 ** rng.uniform(-4, 4, size=2)
        a12 = np.sqrt(a11 * a22) * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-17, -13))
        cases.append((a11, a12, a22))
    for a11, a12, a22 in cases:
        text = ("experiment = anisotropic\n[alpha]\nkind = constant\n"
                f"a11 = {float(a11)!r}\na12 = {float(a12)!r}\na22 = {float(a22)!r}\n")
        try:
            cfg = parse_config(text)
        except ConfigError as err:
            assert str(err) == "line 3: alpha is not positive definite"
        else:
            config_model(cfg)


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
    with pytest.raises(ConfigError, match="line 2: \\[source\\] is not read by experiment"):
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


EVERY_KEY = ["""\
experiment = anisotropic
N = 12
r = 3
T = 0.25
n_steps = 40
method = splitting
seed = 5
output_dir = somewhere/else

[alpha]
kind = constant
a11 = 0.5
a12 = -0.125
a22 = 0.3

[source]
term = constant:1.5 | p = 1:1.0 | q = 2:0.5
term = linear:-0.75 | p = 3:0.25,1:2.0 | q = 12:1.0
term = cosine:0.5:2.0 | p = 2:1.0 | q = 1:-1.0
""", """\
experiment = equivalence
seed = 3
trials = 7
""", """\
experiment = energy-audit
N = 8

[alpha]
kind = rotation
lambda1 = 2.0
lambda2 = 0.25
omega = 1.5
"""]


def test_round_trip_covers_every_key():
    # between them the configs set every global key, every [alpha] key of
    # both kinds and all three profiles to a non-default value
    configs = [parse_config(text) for text in EVERY_KEY]
    for cls, specs in ((RunConfig, configs), (AlphaSpec, [cfg.alpha for cfg in configs])):
        for f in dataclasses.fields(cls):
            assert any(getattr(spec, f.name) != getattr(cls(), f.name) for spec in specs), f.name
    assert configs[0].alpha.a12 != 0.0
    assert [t.profile for t in configs[0].source] == ["constant", "linear", "cosine"]
    for cfg in configs:
        text = serialize_config(cfg)
        assert parse_config(text) == cfg
        assert serialize_config(parse_config(text)) == text


def _readme_complete_config():
    blocks = re.findall(r"^```\n(experiment = .*?)^```", README, re.M | re.S)
    return next(b for b in blocks if "[source]" in b)


@pytest.mark.parametrize("path", sorted((ROOT / "perfbench" / "configs").glob("*.cfg")),
                         ids=lambda p: p.stem)
def test_benchmark_configs_parse_and_round_trip(path):
    cfg = parse_config(path.read_text())
    assert cfg.experiment == path.stem
    assert parse_config(serialize_config(cfg)) == cfg


def test_readme_complete_config_parses_and_round_trips():
    cfg = parse_config(_readme_complete_config())
    assert cfg.experiment == "energy-audit" and cfg.alpha.kind == "rotation"
    assert parse_config(serialize_config(cfg)) == cfg


def test_readme_experiment_table_matches_the_runner():
    # the "reads" column lists each experiment's declared keys, with their
    # defaults, and the sections it reads
    table = README.split("Experiments:", 1)[1].split("\n\n", 2)[1]
    rows = re.findall(r"^\| `([^`]+)` \| ([^|]*) \|", table, re.M)
    assert [name for name, _ in rows] == list(EXPERIMENTS)
    for name, reads in rows:
        exp = EXPERIMENTS[name]
        declared = [f"`{key} = {default}`" for key, default in exp.reads.items()]
        declared += [f"`[{section}]`" for section in ("alpha", "source")
                     if getattr(exp, section)]
        assert reads == ", ".join(declared), name


@pytest.mark.parametrize("alpha, line, key, kind", [
    pytest.param("kind = rotation\nlambda1 = 1.0\na11 = 0.5\n", 5, "a11", "rotation",
                 id="constant-key-under-rotation"),
    pytest.param("omega = 3.0\n", 3, "omega", "constant", id="rotation-key-by-default"),
    pytest.param("a11 = 1.0\nkind = constant\nlambda2 = 0.5\n", 5, "lambda2", "constant",
                 id="rotation-key-under-constant"),
])
def test_alpha_key_of_the_other_kind_rejected(alpha, line, key, kind):
    # the model would ignore the key and the run.log echo would drop it
    with pytest.raises(ConfigError) as err:
        parse_config(f"experiment = anisotropic\n[alpha]\n{alpha}")
    assert err.value.line == line
    assert str(err.value) == f"line {line}: {key!r} is not a parameter of alpha kind {kind!r}"


@pytest.mark.parametrize("body, argv, message", [
    pytest.param("experiment = convergence-h\nN = 8\ntrials = 7\n", [],
                 "line 4: 'trials' is not read by experiment 'convergence-h'",
                 id="trials-convergence-h"),
    pytest.param("experiment = geometry-suites\nN = 8\nmethod = als\n", [],
                 "line 4: 'method' is not read by experiment 'geometry-suites'",
                 id="method-geometry-suites"),
    pytest.param("experiment = equivalence\n[alpha]\nkind = constant\n", [],
                 "line 3: [alpha] is not read by experiment 'equivalence'",
                 id="alpha-equivalence"),
    pytest.param("experiment = heat-diagonal\nN = 8\n", ["--seed", "5"],
                 "--seed is not read by experiment 'heat-diagonal'", id="seed-heat-diagonal"),
    # fewer steps would repeat step counts, and the observed order would
    # divide by log(1)
    pytest.param("experiment = convergence-h\nN = 8\nn_steps = 4\n", [],
                 "convergence-h needs n_steps >= 16 (it also runs n_steps / 16)",
                 id="few-steps-convergence-h"),
])
def test_main_rejects_what_the_experiment_does_not_read(tmp_path, capsys, body, argv, message):
    # input the experiment would ignore, replace or crash on exits 2 before
    # anything runs or is written
    out = tmp_path / "out"
    path = _write(tmp_path, f"output_dir = {out}\n{body}")
    assert main(["run", path, "--quiet", *argv]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_negative_seed_rejected():
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        parse_config("experiment = anisotropic\nseed = -1\n")


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


def test_run_anisotropic_reference(tmp_path):
    # the reference method keeps dense states, which the interpolant
    # identity and the trajectory writer read as they are
    out = tmp_path / "reference"
    cfg = parse_config(f"experiment = anisotropic\nN = 8\nr = 2\nT = 0.05\nn_steps = 5\n"
                       f"method = reference\noutput_dir = {out}\n")
    assert run(cfg, quiet=True) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 7 and rows[1].split(",")[4] == "nan"     # no sigma_r when dense


def test_run_energy_audit_reference(tmp_path):
    # the audit reads F and the residual from each step's record, which the
    # dense reference step writes as well
    out = tmp_path / "reference"
    path = _write(tmp_path, ROTATION.replace("seed = 11\n", "seed = 11\nmethod = reference\n"))
    assert main(["run", path, "--quiet", "--out", str(out)]) == 0
    assert "passed,true" in (out / "report.csv").read_text().splitlines()


@pytest.mark.parametrize("cfg, message", [
    (RunConfig(experiment="heat-diagonal", N=8, r=2, method="rk4"), "unknown method 'rk4'"),
    (RunConfig(experiment="geometry-suites", N=8, r=2, trials=0), "trials must be >= 1"),
    (RunConfig(experiment="heat-diagnoal"), "unknown experiment 'heat-diagnoal'"),
], ids=["method", "trials", "experiment"])
def test_run_validates_the_config(tmp_path, capsys, cfg, message):
    # a config built in code is checked like a parsed one: exit 2, even
    # when quiet, before the output directory is made
    out = tmp_path / "out"
    assert run(dataclasses.replace(cfg, output_dir=str(out)), quiet=True) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


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


@pytest.mark.parametrize("body, line, what", [
    pytest.param("[alpha]\nkind = constant\na11 = nan\n", 5, "bad value for a11", id="a11"),
    pytest.param("T = inf\n", 3, "bad value for T", id="T"),
    pytest.param("[alpha]\nkind = rotation\nomega = nan\n", 5, "bad value for omega",
                 id="omega"),
    pytest.param("[source]\nterm = cosine:nan:1 | p = 1:1 | q = 1:1\n", 4, "bad time profile",
                 id="profile"),
    pytest.param("[source]\nterm = constant:1 | p = 1:-inf | q = 1:1\n", 4, "bad mode entry",
                 id="mode"),
])
def test_main_rejects_non_finite_numbers(tmp_path, capsys, body, line, what):
    # nan and inf fail to parse, with the line, before anything runs or is
    # written; a11 = nan used to pass the positivity checks and crash later
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = anisotropic\noutput_dir = {out}\n{body}")
    assert main(["run", path]) == 2
    err = capsys.readouterr().err
    assert f"line {line}: {what}" in err
    assert not out.exists()


def test_main_overrides_and_gnuplot(tmp_path):
    cfg_path = _write(tmp_path, _quick_heat(tmp_path / "ignored"))
    out = tmp_path / "chosen"
    assert main(["run", cfg_path, "--out", str(out), "--quiet", "--gnuplot"]) == 0
    assert (out / "trajectory.gp").exists()
    assert not (tmp_path / "ignored").exists()


def test_main_validates_seed_override(tmp_path, capsys):
    # the override is validated like the config: exit 2, nothing written,
    # instead of a traceback from the random generator
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = anisotropic\nN = 8\nr = 2\noutput_dir = {out}\n")
    assert main(["run", path, "--quiet", "--seed", "-1"]) == 2
    assert "config error: seed must be >= 0" in capsys.readouterr().err
    assert not out.exists()


def test_empty_output_dir_rejected(tmp_path, monkeypatch, capsys):
    # an empty output_dir would put the artifacts into the working directory
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, "experiment = heat-diagonal\nN = 8\nr = 2\noutput_dir =\n")
    assert main(["run", path, "--quiet"]) == 2
    assert "config error: output_dir must not be empty" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("out", ["", "  "])
def test_main_validates_out_override(tmp_path, monkeypatch, capsys, out):
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, "experiment = heat-diagonal\nN = 8\nr = 2\n")
    assert main(["run", path, "--quiet", "--out", out]) == 2
    assert "config error: output_dir must not be empty" in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


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


@pytest.mark.parametrize("override", [True, False], ids=["out", "output_dir"])
def test_main_output_path_that_is_a_file(tmp_path, monkeypatch, capsys, override):
    # the directory is made before the experiment runs: a path that cannot
    # be one exits 2 with one line, runs nothing and leaves the file alone
    import lowrankpde.cli as cli_mod

    def must_not_run(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli_mod, "integrate", must_not_run)
    blocker = tmp_path / "afile"
    blocker.write_text("keep\n")
    text = "experiment = heat-diagonal\nN = 8\n"
    argv = ["--out", str(blocker)] if override else []
    path = _write(tmp_path, text + ("" if override else f"output_dir = {blocker}\n"))
    assert main(["run", path, "--quiet", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("cannot make the output directory: ") and err.count("\n") == 1
    assert blocker.read_text() == "keep\n"
