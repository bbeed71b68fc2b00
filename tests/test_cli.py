"""Config parsing, artifact layout, and reproducibility of the runner."""

import dataclasses
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from lowrankpde import analysis
from lowrankpde.cli import (EXPERIMENTS, METHODS, AlphaSpec, ConfigError, RunConfig, config_model,
                            config_source, initial_state, main, parse_config, serialize_config)
from lowrankpde.galerkin import (GalerkinOperator, exact_diagonal_solution, h_distance,
                                 rhs_mean_factors)
from lowrankpde.stepping import integrate

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
    assert cfg.method == "als" and cfg.seed == 0
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
    with pytest.raises(ConfigError) as err:
        parse_config("experiment = heat-diagonal\nN = 8\nbogus = 1\n")
    assert str(err.value) == "line 3: unknown key 'bogus'"


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
            assert str(err) == "line 3: bad [alpha]: diffusion tensor is not positive definite"
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


def test_heat_diagonal_preset_restrictions(tmp_path):
    with pytest.raises(ConfigError, match="diagonal"):
        parse_config("experiment = heat-diagonal\n[alpha]\nkind = constant\n"
                     "a11 = 1.0\na12 = 0.1\na22 = 1.0\n")
    # the restriction is the model's constant_diagonal, the case the closed
    # form solves: a rotating frame is refused, and at omega = 0 the rotation
    # kind is exactly diag(lambda1, lambda2), so it runs and passes
    rotation = "experiment = heat-diagonal\nN = 8\n[alpha]\nkind = rotation\nlambda1 = 1.0\n"
    with pytest.raises(ConfigError, match="diagonal"):
        parse_config(rotation + "lambda2 = 0.5\nomega = 1.0\n")
    assert _main(tmp_path, rotation + "lambda2 = 0.5\nomega = 0.0\n", tmp_path / "out") == 0
    assert "passed,true" in (tmp_path / "out" / "report.csv").read_text().splitlines()
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
    assert str(err.value) == f"line {line}: {key!r} is not a parameter of alpha kind {kind!r}"


@pytest.mark.parametrize("body, message", [
    pytest.param("experiment = convergence-h\nN = 8\ntrials = 7\n",
                 "line 3: 'trials' is not read by experiment 'convergence-h'",
                 id="trials-convergence-h"),
    pytest.param("experiment = geometry-suites\nN = 8\nmethod = als\n",
                 "line 3: 'method' is not read by experiment 'geometry-suites'",
                 id="method-geometry-suites"),
    pytest.param("experiment = equivalence\n[alpha]\nkind = constant\n",
                 "line 2: [alpha] is not read by experiment 'equivalence'",
                 id="alpha-equivalence"),
    pytest.param("experiment = heat-diagonal\nN = 8\nseed = 5\n",
                 "line 3: 'seed' is not read by experiment 'heat-diagonal'",
                 id="seed-heat-diagonal"),
    # fewer steps would repeat step counts, and the observed order would
    # divide by log(1)
    pytest.param("experiment = convergence-h\nN = 8\nn_steps = 4\n",
                 "convergence-h needs n_steps >= 16 (it also runs n_steps / 16)",
                 id="few-steps-convergence-h"),
])
def test_main_rejects_what_the_experiment_does_not_read(tmp_path, capsys, body, message):
    # input the experiment would ignore or crash on exits 2 before anything
    # runs or is written
    out = tmp_path / "out"
    path = _write(tmp_path, body)
    assert main(["run", path, "--quiet", "--out", str(out)]) == 2
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


def _main(tmp_path, text, out):
    """``main`` on ``text``, written by ``_write``, quiet, with artifacts in ``out``."""
    return main(["run", _write(tmp_path, text), "--out", str(out), "--quiet"])


QUICK_HEAT = "experiment = heat-diagonal\nN = 8\nr = 2\nT = 0.05\nn_steps = 10\n"


def test_run_writes_artifacts(tmp_path):
    out = tmp_path / "artifacts"
    assert _main(tmp_path, QUICK_HEAT, out) == 0
    for name in ("trajectory.csv", "diagnostics.csv", "report.csv", "run.log"):
        assert (out / name).exists(), name
    header = (out / "trajectory.csv").read_text().splitlines()[0]
    assert header == "step,t,h_norm,v_norm,sigma_r,galerkin_residual,objective"
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 12                       # header + initial + 10 steps
    log = (out / "run.log").read_text()
    assert "status: 0" in log and "passed" in log


@pytest.mark.parametrize("method", METHODS)
def test_heat_diagonal_runs_every_method(tmp_path, method):
    # the closed form starts from the factored start, also where the
    # reference method integrates its dense copy
    cfg = dataclasses.replace(parse_config(QUICK_HEAT), method=method)
    assert _main(tmp_path, serialize_config(cfg), tmp_path / "out") == 0


def test_run_anisotropic_reference(tmp_path):
    # the reference method keeps dense states, which the audit, the
    # interpolant gap and the trajectory writer read as they are
    out = tmp_path / "reference"
    text = "experiment = anisotropic\nN = 8\nr = 2\nT = 0.05\nn_steps = 5\nmethod = reference\n"
    assert _main(tmp_path, text, out) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert len(rows) == 7 and rows[1].split(",")[4] == "nan"     # no sigma_r when dense


def test_trajectory_run_takes_one_svd_per_state(tmp_path, monkeypatch):
    # the writer reads the start's sigma_r from the trajectory, which took
    # it from integrate's start check: one SVD for the start, one per step
    calls, svd = [], np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kw: calls.append(1) or svd(*args, **kw))
    out = tmp_path / "anisotropic"
    assert _main(tmp_path, "experiment = anisotropic\nN = 8\nr = 2\nT = 0.05\nn_steps = 5\n",
                 out) == 0
    assert len(calls) == 5 + 1
    monkeypatch.undo()
    rows = (out / "trajectory.csv").read_text().splitlines()
    assert float(rows[1].split(",")[4]) > 0.0


def test_anisotropic_run_measures_each_increment_once(tmp_path, monkeypatch):
    # the audit measures |u_i - u_{i-1}| once per step, for the energy
    # balance and the interpolant gap alike; the CLI measures none itself
    calls, distance = [], analysis.h_distance
    monkeypatch.setattr(analysis, "h_distance", lambda *a: calls.append(1) or distance(*a))
    assert _main(tmp_path, "experiment = anisotropic\nN = 8\nr = 2\nT = 0.05\nn_steps = 5\n",
                 tmp_path / "out") == 0
    assert len(calls) == 5


def test_run_energy_audit_reference(tmp_path):
    # the audit reads F and the residual from each step's record, which the
    # dense reference step writes as well
    out = tmp_path / "reference"
    path = _write(tmp_path, ROTATION.replace("seed = 11\n", "seed = 11\nmethod = reference\n"))
    assert main(["run", path, "--quiet", "--out", str(out)]) == 0
    assert "passed,true" in (out / "report.csv").read_text().splitlines()


@pytest.mark.parametrize("text", [QUICK_HEAT, ROTATION], ids=["heat-diagonal", "energy-audit"])
def test_trajectory_run_builds_one_operator(tmp_path, monkeypatch, text):
    # integrate builds the run's one GalerkinOperator; the closed form, the
    # audit and the trajectory writer read N from their input instead
    built, init = [], GalerkinOperator.__init__
    monkeypatch.setattr(GalerkinOperator, "__init__",
                        lambda self, *args: built.append(1) or init(self, *args))
    assert _main(tmp_path, text, tmp_path / "out") == 0
    assert len(built) == 1


@pytest.mark.parametrize("violations, expected", [
    ([("v_bound", -1, 1.0)], ("false", "true")),
    ([("h_norm_monotonicity", 10, 1.0)], ("false", "false")),
], ids=["audit-violation", "h-norm-rise"])
def test_energy_audit_rows_report_their_own_checks(tmp_path, monkeypatch, violations, expected):
    # on a homogeneous run each row reports its own check: an audit
    # violation leaves h_norm_nonincreasing true, and `passed` is true
    # exactly when the exit status is 0, also when only the h-norm rose
    import lowrankpde.cli as cli_mod
    audit = cli_mod.energy_audit

    def patched_audit(*args):
        return dataclasses.replace(audit(*args), violations=violations)

    monkeypatch.setattr(cli_mod, "energy_audit", patched_audit)
    out = tmp_path / "audit"
    text = "experiment = energy-audit\nN = 8\nr = 2\nT = 0.1\nn_steps = 10\n"
    assert _main(tmp_path, text, out) == 1
    rows = [line.split(",", 1) for line in (out / "report.csv").read_text().splitlines()[1:]]
    assert [key for key, _ in rows] == [
        "experiment", "method", "slack_energy_sum", "slack_objective_monotonicity",
        "slack_v_bound", "budget", "passed", "h_norm_nonincreasing"]
    assert (rows[-2][1], rows[-1][1]) == expected


ANISOTROPIC = "experiment = anisotropic\n"
SOURCE = "[source]\nterm = "


@pytest.mark.parametrize("text, message", [
    pytest.param("experiment = heat-diagonal\nmethod = rk4\n", "unknown method 'rk4'",
                 id="method"),
    pytest.param("experiment = geometry-suites\ntrials = 0\n", "trials must be >= 1",
                 id="trials"),
    pytest.param("experiment = heat-diagonal\nN = 8\nr = 9\n", "r must satisfy 1 <= r <= N",
                 id="r-above-N"),
    pytest.param("experiment = heat-diagonal\nT = -0.5\n", "T must be positive and finite",
                 id="T-negative"),
    pytest.param("experiment = heat-diagnoal\n", "line 1: unknown experiment 'heat-diagnoal'",
                 id="experiment"),
    pytest.param("experiment = heat-diagonal\n[alpha]\na11 = -1.0\n",
                 "line 3: bad [alpha]: diffusion tensor is not positive definite", id="alpha-a11"),
    pytest.param(ANISOTROPIC + "[alpha]\nkind = foo\n", "line 3: unknown alpha kind 'foo'",
                 id="alpha-kind"),
    pytest.param(ANISOTROPIC + "[alpha]\nkind = rotation\nlambda1 = -1.0\n",
                 "line 3: bad [alpha]: diffusion tensor is not positive definite",
                 id="alpha-lambda1"),
    pytest.param(ANISOTROPIC + "[alpha]\nkind = rotation\nomega = inf\n",
                 "line 4: bad value for omega: 'inf'", id="alpha-omega-inf"),
    pytest.param("experiment = heat-diagonal\nT = inf\n", "line 2: bad value for T: 'inf'",
                 id="T-inf"),
    pytest.param("experiment = heat-diagonal\nT = true\n", "line 2: bad value for T: 'true'",
                 id="T-bool"),
    pytest.param("experiment = heat-diagonal\nn_steps = 2.5\n",
                 "line 2: bad value for n_steps: '2.5'", id="n_steps-fraction"),
    pytest.param("experiment = heat-diagonal\nn_steps = true\n",
                 "line 2: bad value for n_steps: 'true'", id="n_steps-bool"),
    pytest.param(ANISOTROPIC + SOURCE + "constant:inf | p = 1:1.0 | q = 1:1.0\n",
                 "line 3: bad time profile 'constant:inf'", id="source-scale-inf"),
    # the term fails on its line before the section fails on its header
    pytest.param("experiment = heat-diagonal\n" + SOURCE + "constant:inf | p = 1:1.0 | q = 1:1.0\n",
                 "line 3: bad time profile 'constant:inf'", id="source-unread-scale-inf"),
    pytest.param(ANISOTROPIC + SOURCE + "constant:1.0 | p = 1:nan | q = 1:1.0\n",
                 "line 3: bad mode entry '1:nan'", id="source-coeff-nan"),
    pytest.param(ANISOTROPIC + SOURCE + "constant:1.0 | p = 1:1e300 | q = 1:1e300\n",
                 "bad [source]: source term 0 overflows: |p| |q| is not finite",
                 id="source-overflow"),
    pytest.param(ANISOTROPIC + SOURCE + "quadratic:1.0 | p = 1:1.0 | q = 1:1.0\n",
                 "line 3: bad time profile 'quadratic:1.0'", id="source-profile"),
    pytest.param(ANISOTROPIC + SOURCE + "constant:1.0 | p = 1.5:1.0 | q = 1:1.0\n",
                 "line 3: bad mode entry '1.5:1.0'", id="source-mode-fraction"),
    pytest.param(ANISOTROPIC + SOURCE + "constant:1.0 | p = 1:1.0 | q = true:1.0\n",
                 "line 3: bad mode entry 'true:1.0'", id="source-mode-bool"),
])
def test_run_validates_the_config(tmp_path, capsys, text, message):
    # a config the parser or its checks refuse exits 2, even when quiet,
    # before the output directory is made; a bool or a fraction where an
    # integer belongs fails to convert, as inf fails the float converter
    out = tmp_path / "out"
    assert _main(tmp_path, text, out) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("text", [
    QUICK_HEAT,
    "experiment = anisotropic\nN = 8\nr = 2\nT = 0.05\nn_steps = 5\n"
    "[source]\nterm = constant:1.0 | p = 1:1.0 | q = 2:1.0\n"],
    ids=["heat-diagonal", "anisotropic"])
def test_run_builds_the_model_and_source_once(tmp_path, monkeypatch, text):
    # the parse checks the config by building its model and source, and the
    # experiment runs those: one build of each per run
    import lowrankpde.cli as cli_mod
    calls = []
    for name in ("config_model", "config_source"):
        build = getattr(cli_mod, name)
        monkeypatch.setattr(cli_mod, name,
                            lambda cfg, build=build, name=name: calls.append(name) or build(cfg))
    assert _main(tmp_path, text, tmp_path / "out") == 0
    assert calls == ["config_model", "config_source"]


def test_run_is_byte_reproducible(tmp_path):
    assert _main(tmp_path, QUICK_HEAT, tmp_path / "a") == 0
    assert _main(tmp_path, QUICK_HEAT, tmp_path / "b") == 0
    for name in ("trajectory.csv", "diagnostics.csv", "report.csv"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_run_default_heat_preset_meets_bound(tmp_path):
    # the all-defaults run: N=32, r=2, T=0.1, 100 steps against the decayed
    # closed form, final error below 5e-3
    out = tmp_path / "preset"
    assert _main(tmp_path, MINIMAL, out) == 0
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
    assert _main(tmp_path, QUICK_HEAT, out) == 3
    log = (out / "run.log").read_text()
    assert "status: 3" in log and "step 3" in log
    assert not (out / "trajectory.csv").exists()


#: convergence-h under the identity tensor: the 64-step run of the study
#: reaches the rank floor before T, which no report row can stand for
CONVERGENCE_HALTED = ("experiment = convergence-h\nN = 8\nr = 2\nT = 0.8\nn_steps = 64\n"
                      "[alpha]\nkind = constant\na11 = 1\na22 = 1\n")
_TRAJECTORY_FILES = ["diagnostics.csv", "report.csv", "run.log", "trajectory.csv"]


@pytest.mark.parametrize("text, status, summary, notes, log_tail, files", [
    pytest.param(QUICK_HEAT, 0, "heat-diagonal: ok", [],
                 ["final_error  0.00028721542016960929", "error_threshold  0.0050000000000000001",
                  "passed  true", "status: 0"], _TRAJECTORY_FILES, id="exit-0"),
    pytest.param(QUICK_HEAT.replace("T = 0.05\nn_steps = 10", "T = 0.1\nn_steps = 1"), 1,
                 "heat-diagonal: FAILED", ["violation: final error 9.726e-03 above 5.0e-03"],
                 ["passed  false", "violation: final error 9.726e-03 above 5.0e-03", "status: 1"],
                 _TRAJECTORY_FILES, id="exit-1"),
    pytest.param(CONVERGENCE_HALTED, 3, None,
                 ["numerical failure: the rank monitor halted the 64-step run at step 60 "
                  "(t = 0.75), before T = 0.8"],
                 ["  a22 = 1", "numerical failure: the rank monitor halted the 64-step run at "
                  "step 60 (t = 0.75), before T = 0.8", "status: 3"], ["run.log"], id="exit-3"),
])
@pytest.mark.parametrize("quiet", [False, True], ids=["loud", "quiet"])
def test_run_outcome_is_reported_once(tmp_path, capsys, text, status, summary, notes, log_tail,
                                      files, quiet):
    # each outcome writes its artifacts, a run.log ending in its notes and
    # status, its notes to stderr and, unless it failed numerically, one
    # summary line to stdout; --quiet silences both streams
    out = tmp_path / "out"
    argv = ["run", _write(tmp_path, text), "--out", str(out)]
    assert main(argv + ["--quiet"] * quiet) == status
    captured = capsys.readouterr()
    stdout = "" if quiet or summary is None else f"{summary} (artifacts in {out})\n"
    stderr = "" if quiet else "".join(f"{note}\n" for note in notes)
    assert (captured.out, captured.err) == (stdout, stderr)
    log = (out / "run.log").read_text().splitlines()
    assert log[0] == "config:" and log[-len(log_tail):] == log_tail
    assert sorted(p.name for p in out.iterdir()) == files


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
    argv = ["run", _write(tmp_path, QUICK_HEAT), "--out", str(out)]
    assert main(argv + ["--quiet"] * quiet) == 0
    assert "warning: sweep cap 100 reached" in (out / "run.log").read_text().splitlines()
    err = capsys.readouterr().err
    assert ("sweep cap" in err) != quiet
    logger = logging.getLogger("lowrankpde")
    assert logger.propagate and not logger.handlers


def test_run_help_says_what_quiet_keeps_off_both_streams(capsys):
    # --quiet drops the stdout summary and the stderr notes and warnings,
    # which run.log still records (test_run_outcome_is_reported_once)
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--help"])
    assert exit_.value.code == 0
    text = " ".join(capsys.readouterr().out.split())      # as wrapped to any width
    assert ("--quiet no summary on stdout; the notes and warnings go to run.log only"
            in text)


def test_run_detects_violation(tmp_path):
    # a single huge step cannot meet the preset error bound
    out = tmp_path / "coarse"
    assert _main(tmp_path, "experiment = heat-diagonal\nN = 8\nr = 2\nT = 0.1\nn_steps = 1\n",
                 out) == 1
    log = (out / "run.log").read_text()
    assert "violation" in log and "status: 1" in log


#: heat-diagonal under the identity tensor: the (2, 2) mode decays 6 pi^2
#: faster than the (1, 1) mode, so the rank monitor halts long before T
HALTED = "experiment = heat-diagonal\n{}\n[alpha]\nkind = constant\na11 = 1.0\na22 = 1.0\n"


@pytest.mark.parametrize("text, halt", [
    pytest.param(HALTED.format("N = 8\nr = 2\nT = 0.8\nn_steps = 1000"),
                 (607, "0.4856", "0.8"), id="N8-r2"),
    # the closed form keeps rank 4 at T = 1; at the halt (t = 0.34) the state
    # is within the error threshold of it
    pytest.param(HALTED.format("N = 40\nr = 4\nT = 1\nn_steps = 50"), (17, "0.34", "1"),
                 id="N40-r4"),
])
def test_heat_diagonal_fails_a_halted_run(tmp_path, text, halt):
    # a run the rank monitor halted has no final state at T to compare with
    # the closed form: it fails, naming the halt step and its time, and its
    # final_error is measured against the closed form at the halt time
    out = tmp_path / "halted"
    assert _main(tmp_path, text, out) == 1
    step, t, T = halt
    log = (out / "run.log").read_text().splitlines()
    assert log[-2:] == [f"violation: the rank monitor halted the run at step {step} (t = {t}), "
                        f"before T = {T}", "status: 1"]
    report = dict(line.split(",", 1) for line in (out / "report.csv").read_text().splitlines())
    assert report["passed"] == "false"
    cfg = parse_config(text)
    model, u0 = config_model(cfg), initial_state(cfg)
    traj = integrate(cfg.method, u0, cfg.T, cfg.n_steps, model, config_source(cfg))
    err = h_distance(traj.states[-1], exact_diagonal_solution(model, u0, traj.times[-1]))
    assert float(report["final_error"]) == err
    assert f"final_error  {report['final_error']}" in log
    last = (out / "trajectory.csv").read_text().splitlines()[-1].split(",")
    assert int(last[0]) == step and float(last[1]) == pytest.approx(float(t), rel=1e-12)


def test_overflowing_repeated_mode_prints_the_config_error_alone(tmp_path):
    # two 1e308 coefficients of one mode sum to inf, which the source
    # refuses; no numpy overflow warning reaches stderr ahead of the error
    text = ANISOTROPIC + SOURCE + "constant:1.0 | p = 1:1e308,1:1e308 | q = 1:1.0\n"
    out = tmp_path / "out"
    done = subprocess.run([sys.executable, "-W", "default", "-c",
                           "import sys; from lowrankpde.cli import main; sys.exit(main())",
                           "run", _write(tmp_path, text), "--out", str(out)],
                          capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert (done.returncode, done.stderr) == (
        2, "config error: bad [source]: source factor p of term 0 must be finite\n")
    assert not out.exists()


def test_main_config_errors(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    missing = str(tmp_path / "nope.cfg")
    assert main(["run", missing]) == 2
    bad = _write(tmp_path, "experiment = heat-diagonal\nwhat = 1\n")
    assert main(["run", bad]) == 2
    err = capsys.readouterr().err
    assert "line 2" in err
    assert not (tmp_path / "out").exists()       # nothing written on exit 2


@pytest.mark.parametrize("body, line, what", [
    pytest.param("[alpha]\nkind = constant\na11 = nan\n", 4, "bad value for a11", id="a11"),
    pytest.param("T = inf\n", 2, "bad value for T", id="T"),
    pytest.param("[alpha]\nkind = rotation\nomega = nan\n", 4, "bad value for omega",
                 id="omega"),
    pytest.param("[source]\nterm = cosine:nan:1 | p = 1:1 | q = 1:1\n", 3, "bad time profile",
                 id="profile"),
    pytest.param("[source]\nterm = constant:1 | p = 1:-inf | q = 1:1\n", 3, "bad mode entry",
                 id="mode"),
])
def test_main_rejects_non_finite_numbers(tmp_path, capsys, body, line, what):
    # nan and inf fail to parse, with the line, before anything runs or is
    # written; a11 = nan used to pass the positivity checks and crash later
    out = tmp_path / "out"
    path = _write(tmp_path, f"experiment = anisotropic\n{body}")
    assert main(["run", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"line {line}: {what}" in err
    assert not out.exists()


def test_main_overrides_and_gnuplot(tmp_path, capsys):
    # --out places the artifacts; --gnuplot is no option any more (the
    # README gives the gnuplot command), so it is refused, not ignored
    cfg_path = _write(tmp_path, QUICK_HEAT)
    out = tmp_path / "chosen"
    assert main(["run", cfg_path, "--out", str(out), "--quiet"]) == 0
    assert (out / "trajectory.csv").exists()
    with pytest.raises(SystemExit) as exit_:
        main(["run", cfg_path, "--out", str(out), "--quiet", "--gnuplot"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --gnuplot" in capsys.readouterr().err


def test_main_validates_seed_override(tmp_path, capsys):
    # the config's seed key is the only way to set the seed: --seed is
    # refused with exit 2 before anything runs or is written
    out = tmp_path / "out"
    path = _write(tmp_path, "experiment = anisotropic\nN = 8\nr = 2\n")
    with pytest.raises(SystemExit) as exit_:
        main(["run", path, "--quiet", "--out", str(out), "--seed", "5"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not out.exists()


def test_empty_output_dir_rejected(tmp_path, monkeypatch, capsys):
    # --out is the only way to place the artifacts: an output_dir key, empty
    # or not, is an unknown key
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, "experiment = heat-diagonal\nN = 8\nr = 2\noutput_dir =\n")
    assert main(["run", path, "--quiet"]) == 2
    assert capsys.readouterr().err == "config error: line 4: unknown key 'output_dir'\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


@pytest.mark.parametrize("out", ["", "  "])
def test_main_validates_out_override(tmp_path, monkeypatch, capsys, out):
    # an empty path would put the artifacts into the working directory
    monkeypatch.chdir(tmp_path)
    path = _write(tmp_path, "experiment = heat-diagonal\nN = 8\nr = 2\n")
    assert main(["run", path, "--quiet", "--out", out]) == 2
    assert capsys.readouterr().err == "config error: the output directory must not be empty\n"
    assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]


def test_config_seed_changes_random_experiment(tmp_path):
    text = ("experiment = energy-audit\nN = 8\nr = 2\nT = 0.1\nn_steps = 10\n{seed}"
            "\n[alpha]\nkind = rotation\nlambda1 = 1.0\nlambda2 = 0.5\nomega = 1.0\n")
    for name, seed in (("e0", ""), ("e1", "seed = 99\n")):
        cfg_path = _write(tmp_path, text.format(seed=seed), name=f"{name}.cfg")
        assert main(["run", cfg_path, "--quiet", "--out", str(tmp_path / name)]) == 0
    a = (tmp_path / "e0" / "trajectory.csv").read_text()
    b = (tmp_path / "e1" / "trajectory.csv").read_text()
    assert a != b                                # different random start


def test_equivalence_experiment_report(tmp_path):
    out = tmp_path / "eq"
    assert _main(tmp_path, "experiment = equivalence\ntrials = 6\nseed = 4\n", out) == 0
    report = (out / "report.csv").read_text().splitlines()
    assert report[0] == "property,trials,violations,worst_ratio"
    assert any("single_sweep_vs_splitting" in line for line in report[1:])
    # no trajectory for trial-based experiments
    assert not (out / "trajectory.csv").exists()


def test_geometry_experiment_report(tmp_path):
    out = tmp_path / "geo"
    assert _main(tmp_path, "experiment = geometry-suites\nN = 6\nr = 2\ntrials = 20\n", out) == 0
    report = (out / "report.csv").read_text()
    for key in ("curvature.", "projection.", "tangency."):
        assert key in report


def test_convergence_experiment_report(tmp_path):
    out = tmp_path / "conv"
    text = "experiment = convergence-h\nN = 8\nr = 2\nT = 0.05\nn_steps = 32\n"
    assert _main(tmp_path, text, out) == 0
    lines = (out / "report.csv").read_text().splitlines()
    assert lines[0] == "parameter,error,observed_order"
    assert len(lines) == 6                       # five step counts
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(b < a for a, b in zip(errors, errors[1:]))


@pytest.mark.parametrize("via", ["out", "output_dir"])
def test_main_output_path_that_is_a_file(tmp_path, monkeypatch, capsys, via):
    # the directory is made before the experiment runs: a path that cannot
    # be one exits 2 with one line, runs nothing and leaves the file alone;
    # a config cannot name the path at all
    import lowrankpde.cli as cli_mod

    def must_not_run(*args, **kwargs):
        raise AssertionError("the experiment ran")

    monkeypatch.setattr(cli_mod, "integrate", must_not_run)
    monkeypatch.chdir(tmp_path)
    blocker = tmp_path / "afile"
    blocker.write_text("keep\n")
    text = "experiment = heat-diagonal\nN = 8\n"
    if via == "out":
        argv, message = ["--out", str(blocker)], "cannot make the output directory: "
    else:
        text += f"output_dir = {blocker}\n"
        argv, message = [], "config error: line 3: unknown key 'output_dir'"
    assert main(["run", _write(tmp_path, text), "--quiet", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1
    assert blocker.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "run.cfg"]
