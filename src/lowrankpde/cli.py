"""Command-line runner.

Usage:  lowrankpde run CONFIG [--seed S] [--out DIR] [--quiet] [--gnuplot]

Configs are line-oriented ``key = value`` files with optional ``[alpha]``
and ``[source]`` sections.  The dataclasses below are the schema: their
fields are the keys, their types the converters and their defaults the
defaults.  ``EXPERIMENTS`` declares, for each experiment, the function that
runs it, the global keys it reads (with its own defaults where they differ),
whether it reads ``[alpha]`` and ``[source]``, and its own restrictions.
Unknown keys, keys or sections the experiment does not read, and ``[alpha]``
keys of the other kind are rejected with their line number.  Runs are
bit-reproducible for a fixed (config, seed) pair: every artifact
(trajectory.csv, diagnostics.csv, report.csv, run.log) is written
deterministically, floats at 17 significant digits, no timestamps.

Exit status: 0 all asserted properties passed, 1 a property was violated,
2 the config failed to parse or validate or the output directory cannot be
made, 3 a numerical failure occurred.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (convergence_study, curvature_suite, energy_audit, equivalence_test,
                       interpolant_gap, projection_regularity_suite, sample_state,
                       tangency_suite)
from .galerkin import (DiffusionModel, SourceSpec, TimeProfile, build_operator,
                       constant_diffusion, exact_diagonal_solution, h_norm,
                       rotating_diffusion, separable_source, v_norm, zero_source)
from .manifold import LowRankState, RankDeficiencyError, smallest_singular, to_dense
from .stepping import METHODS, InnerSolveError, Trajectory, integrate

__all__ = ["AlphaSpec", "ConfigError", "RunConfig", "SourceTermSpec", "main",
           "parse_config", "run", "serialize_config"]


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


@dataclass(frozen=True)
class AlphaSpec:
    kind: str = "constant"                 # "constant" | "rotation"
    a11: float = 0.02
    a12: float = 0.0
    a22: float = 0.02
    lambda1: float = 1.0
    lambda2: float = 1.0
    omega: float = 0.0


@dataclass(frozen=True)
class SourceTermSpec:
    profile: str                           # "constant" | "linear" | "cosine"
    scale: float
    omega: float
    p: tuple                               # ((mode, coeff), ...)
    q: tuple


@dataclass(frozen=True)
class RunConfig:
    experiment: str = "heat-diagonal"
    N: int = 32
    r: int = 2
    T: float = 0.1
    n_steps: int = 100
    method: str = "als"
    seed: int = 0
    trials: int = 50
    output_dir: str = "out"
    alpha: AlphaSpec = field(default_factory=AlphaSpec)
    source: tuple = ()


# ---------------------------------------------------------------------------
# parsing


def _finite(text: str) -> float:
    """The config's one float converter: ValueError unless finite."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"not a finite number: {text!r}")
    return value


def _schema(cls) -> dict:
    """``{key: converter}`` for the scalar fields of ``cls``, in field order."""
    converters = {"int": int, "float": _finite, "str": str}
    return {f.name: converters[f.type] for f in fields(cls) if f.type in converters}


_GLOBALS = _schema(RunConfig)
_ALPHA = _schema(AlphaSpec)
#: The [alpha] keys each kind reads, besides ``kind`` itself.
_ALPHA_KINDS = {"constant": ("a11", "a12", "a22"), "rotation": ("lambda1", "lambda2", "omega")}
#: The global keys every experiment reads; ``Experiment.reads`` lists the others.
_READ_BY_ALL = ("experiment", "output_dir")


def _convert(schema: dict, raw: dict) -> dict:
    """Convert the ``(text, line)`` values of ``raw`` in field order; the first bad one raises."""
    values = {}
    for name, conv in schema.items():
        if name in raw:
            text, lineno = raw[name]
            try:
                values[name] = conv(text)
            except ValueError:
                raise ConfigError(f"bad value for {name}: {text!r}", lineno) from None
    return values


def _parse_modes(text: str, line: int) -> tuple:
    pairs = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        if ":" not in chunk:
            raise ConfigError(f"mode entry {chunk!r} must look like index:coeff", line)
        idx_s, coeff_s = chunk.split(":", 1)
        try:
            pairs.append((int(idx_s), _finite(coeff_s)))
        except ValueError:
            raise ConfigError(f"bad mode entry {chunk!r}", line) from None
    if not pairs:
        raise ConfigError("empty mode list", line)
    return tuple(pairs)


def _parse_term(value: str, line: int) -> SourceTermSpec:
    """term syntax:  <profile> | p = <modes> | q = <modes>
    profile: constant:<c> | linear:<c> | cosine:<c>:<omega>
    modes:   comma list of  index:coeff"""
    pieces = [f.strip() for f in value.split("|")]
    if len(pieces) != 3:
        raise ConfigError("term needs three |-separated fields: profile | p = ... | q = ...",
                          line)
    prof = pieces[0].split(":")
    kind = prof[0].strip()
    try:
        if kind in ("constant", "linear") and len(prof) == 2:
            scale, omega = _finite(prof[1]), 0.0
        elif kind == "cosine" and len(prof) == 3:
            scale, omega = _finite(prof[1]), _finite(prof[2])
        else:
            raise ValueError
    except ValueError:
        raise ConfigError(f"bad time profile {pieces[0]!r}", line) from None
    sides = {}
    for part in pieces[1:]:
        if "=" not in part:
            raise ConfigError(f"expected p = ... or q = ..., got {part!r}", line)
        name, modes = part.split("=", 1)
        name = name.strip()
        if name not in ("p", "q") or name in sides:
            raise ConfigError(f"unexpected term field {name!r}", line)
        sides[name] = _parse_modes(modes, line)
    if set(sides) != {"p", "q"}:
        raise ConfigError("term needs both p and q mode lists", line)
    return SourceTermSpec(kind, scale, omega, sides["p"], sides["q"])


def parse_config(text: str) -> RunConfig:
    """Parse and validate a config; raises ConfigError with a line number."""
    raw: dict = {None: {}, "alpha": {}}          # section -> {key: (text, line)}
    headers: dict = {}                           # section -> line of its first header
    terms: list = []
    section = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("alpha", "source"):
                raise ConfigError(f"unknown section [{section}]", lineno)
            headers.setdefault(section, lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        where = "" if section is None else f" in [{section}]"
        if section == "source":
            if key != "term":
                raise ConfigError(f"unknown key {key!r}{where}", lineno)
            terms.append(_parse_term(value, lineno))
            continue
        if key not in (_GLOBALS if section is None else _ALPHA):
            raise ConfigError(f"unknown key {key!r}{where}", lineno)
        if key in raw[section]:
            raise ConfigError(f"duplicate key {key!r}{where}", lineno)
        raw[section][key] = (value, lineno)

    name, lineno = raw[None].get("experiment", (RunConfig.experiment, None))
    if name not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {name!r}", lineno)
    exp = EXPERIMENTS[name]
    for key, (_, lineno) in raw[None].items():
        if key not in exp.reads and key not in _READ_BY_ALL:
            raise ConfigError(_unread(repr(key), name), lineno)
    for section, lineno in headers.items():
        if not getattr(exp, section):
            raise ConfigError(_unread(f"[{section}]", name), lineno)

    cfg = RunConfig(**{**exp.reads, **_convert(_GLOBALS, raw[None])},
                    alpha=_build_alpha(raw["alpha"]), source=tuple(terms))
    _validate(cfg)
    return cfg


def _unread(what: str, experiment: str) -> str:
    return f"{what} is not read by experiment {experiment!r}"


def _build_alpha(raw: dict) -> AlphaSpec:
    spec = AlphaSpec(**_convert(_ALPHA, raw))
    first_line = min((l for _, l in raw.values()), default=None)
    if spec.kind not in _ALPHA_KINDS:
        raise ConfigError(f"unknown alpha kind {spec.kind!r}", first_line)
    for key, (_, lineno) in raw.items():
        if key != "kind" and key not in _ALPHA_KINDS[spec.kind]:
            raise ConfigError(f"{key!r} is not a parameter of alpha kind {spec.kind!r}", lineno)
    try:
        _diffusion(spec)
    except ValueError:
        raise ConfigError("alpha is not positive definite", first_line) from None
    return spec


def _validate(cfg: RunConfig):
    if cfg.experiment not in EXPERIMENTS:
        raise ConfigError(f"unknown experiment {cfg.experiment!r}")
    if cfg.method not in METHODS:
        raise ConfigError(f"unknown method {cfg.method!r}")
    if cfg.N < 1:
        raise ConfigError("N must be >= 1")
    if not 1 <= cfg.r <= cfg.N:
        raise ConfigError("r must satisfy 1 <= r <= N")
    if not cfg.T > 0:
        raise ConfigError("T must be positive")
    if cfg.n_steps < 1:
        raise ConfigError("n_steps must be >= 1")
    if cfg.seed < 0:
        raise ConfigError("seed must be >= 0")
    if cfg.trials < 1:
        raise ConfigError("trials must be >= 1")
    if not cfg.output_dir.strip():
        raise ConfigError("output_dir must not be empty")
    for term in cfg.source:
        for side in (term.p, term.q):
            for mode, _ in side:
                if not 1 <= mode <= cfg.N:
                    raise ConfigError(f"source mode {mode} outside 1..{cfg.N}")
    EXPERIMENTS[cfg.experiment].check(cfg)


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form of the keys and sections the experiment reads;
    parse(serialize(parse(s))) == parse(s)."""
    exp = EXPERIMENTS[cfg.experiment]
    out = [f"{name} = {_fmt(getattr(cfg, name))}" for name in _GLOBALS
           if name in exp.reads or name in _READ_BY_ALL]
    if exp.alpha:
        out += ["", "[alpha]", f"kind = {cfg.alpha.kind}"]
        out += [f"{name} = {_fmt(getattr(cfg.alpha, name))}"
                for name in _ALPHA_KINDS[cfg.alpha.kind]]
    if exp.source and cfg.source:
        out += ["", "[source]"]
        for term in cfg.source:
            if term.profile == "cosine":
                prof = f"cosine:{_fmt(term.scale)}:{_fmt(term.omega)}"
            else:
                prof = f"{term.profile}:{_fmt(term.scale)}"
            p = ",".join(f"{m}:{_fmt(c)}" for m, c in term.p)
            q = ",".join(f"{m}:{_fmt(c)}" for m, c in term.q)
            out.append(f"term = {prof} | p = {p} | q = {q}")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# config -> model objects


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def _diffusion(a: AlphaSpec) -> DiffusionModel:
    """The model of ``a``; ValueError unless its tensor is positive definite."""
    if a.kind == "constant":
        return constant_diffusion([[a.a11, a.a12], [a.a12, a.a22]])
    return rotating_diffusion(a.lambda1, a.lambda2, a.omega)


def config_model(cfg: RunConfig) -> DiffusionModel:
    return _diffusion(cfg.alpha)


def config_source(cfg: RunConfig) -> SourceSpec:
    if not cfg.source:
        return zero_source(cfg.N)
    terms = []
    for term in cfg.source:
        p, q = np.zeros(cfg.N), np.zeros(cfg.N)
        for vec, side in ((p, term.p), (q, term.q)):
            for mode, coeff in side:
                vec[mode - 1] += coeff
        terms.append((TimeProfile(term.profile, term.scale, term.omega), p, q))
    return separable_source(cfg.N, terms)


def initial_state(cfg: RunConfig) -> LowRankState:
    """Experiment-defined start: a seeded random state if the experiment
    reads a seed, mode-diagonal otherwise."""
    if "seed" not in EXPERIMENTS[cfg.experiment].reads:
        return LowRankState(np.eye(cfg.N, cfg.r), np.eye(cfg.r), np.eye(cfg.N, cfg.r))
    rng = np.random.default_rng([cfg.seed, 0])
    return sample_state(rng, cfg.N, cfg.r, sigma_range=(1e-2, 1.0))


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path: Path, header: str, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    path.write_text("\n".join(lines) + "\n")


def _write_trajectory(out: Path, traj: Trajectory, op):
    rows = []
    for i, t in enumerate(traj.times):
        y = traj.dense(i)
        if i == 0:
            resid, obj = math.nan, math.nan
            sigma = math.nan if traj.method == "reference" else smallest_singular(traj.states[0])
        else:
            d = traj.diagnostics[i - 1]
            resid, obj, sigma = d.galerkin_residual, d.objective_value, d.sigma_r
        rows.append((i, float(t), h_norm(y), v_norm(op, y), sigma, resid, obj))
    _write_csv(out / "trajectory.csv",
               "step,t,h_norm,v_norm,sigma_r,galerkin_residual,objective", rows)


def _write_diagnostics(out: Path, traj: Trajectory):
    rows = [(i + 1, d.sweeps_used, d.galerkin_residual, d.objective_value, d.sigma_r,
             d.objective_decreased) for i, d in enumerate(traj.diagnostics)]
    _write_csv(out / "diagnostics.csv",
               "step,sweeps_used,galerkin_residual,objective_value,sigma_r,objective_decreased",
               rows)


def _write_gnuplot(out: Path):
    script = """set datafile separator ','
set key autotitle columnhead
set logscale y
set xlabel 't'
plot 'trajectory.csv' using 2:3 with lines, \\
     'trajectory.csv' using 2:5 with lines
"""
    (out / "trajectory.gp").write_text(script)


# ---------------------------------------------------------------------------
# experiments


def _problem(cfg: RunConfig):
    """The model, source and start that the trajectory experiments run from."""
    return config_model(cfg), config_source(cfg), initial_state(cfg)


def _suite_rows(report, prefix):
    return [(f"{prefix}.{name}", report.trials, report.violations, report.worst_ratio[name])
            for name in sorted(report.worst_ratio)]


def _heat_diagonal(cfg: RunConfig, op):
    model, source, u0 = _problem(cfg)
    traj = integrate(cfg.method, u0, cfg.T, cfg.n_steps, model, source)
    oracle = to_dense(exact_diagonal_solution(op, model, u0, cfg.T))
    err = h_norm(traj.dense(-1) - oracle)
    threshold = 5e-3
    failures = []
    if err > threshold:
        failures.append(f"final error {err:.3e} above {threshold:.1e}")
    rows = [("experiment", cfg.experiment), ("method", cfg.method), ("n_steps", cfg.n_steps),
            ("final_error", err), ("error_threshold", threshold), ("passed", not failures)]
    return "key,value", rows, failures, traj


def _anisotropic(cfg: RunConfig, op):
    model, source, u0 = _problem(cfg)
    traj = integrate(cfg.method, u0, cfg.T, cfg.n_steps, model, source)
    gap = interpolant_gap(traj)
    increments = sum(h_norm(traj.dense(i) - traj.dense(i - 1)) ** 2
                     for i in range(1, len(traj.states)))
    identity_gap = abs(gap - traj.step_size / 3.0 * increments)
    failures = []
    if identity_gap > 1e-12 * max(gap, 1.0):
        failures.append(f"interpolant identity off by {identity_gap:.3e}")
    not_monotone = [i + 1 for i, d in enumerate(traj.diagnostics) if not d.objective_decreased]
    if not_monotone:
        failures.append(f"objective increased at steps {not_monotone}")
    rows = [("experiment", cfg.experiment), ("method", cfg.method), ("interpolant_gap", gap),
            ("interpolant_identity_error", identity_gap),
            ("objective_monotone", not not_monotone),
            ("halted_early", traj.halted_early is not None), ("passed", not failures)]
    return "key,value", rows, failures, traj


def _convergence_report(table, failures):
    rows = [(_fmt(row.parameter), row.error,
             "" if row.observed_order is None else _fmt(row.observed_order))
            for row in table.rows]
    return "parameter,error,observed_order", rows, failures, None


def _convergence_h(cfg: RunConfig, op):
    """Five step counts, n_steps / 16 up to n_steps; the observed order is
    gated where the closed form is the oracle."""
    model, source, u0 = _problem(cfg)
    counts = tuple(cfg.n_steps // 2 ** k for k in range(4, -1, -1))
    table = convergence_study("step", u0, cfg.T, model, source,
                              method=cfg.method, step_counts=counts)
    failures = []
    if model.diagonal and not model.time_dependent and not source.terms:
        order = table.rows[-1].observed_order
        if order is None or not 0.8 <= order <= 1.2:
            failures.append(f"observed order {order} outside [0.8, 1.2]")
    return _convergence_report(table, failures)


def _convergence_rank(cfg: RunConfig, op):
    """Ranks 1 .. r at fixed step."""
    model, source, u0 = _problem(cfg)
    table = convergence_study("rank", u0, cfg.T, model, source, method=cfg.method,
                              ranks=range(1, cfg.r + 1), n_steps=cfg.n_steps)
    return _convergence_report(table, [])


def _equivalence(cfg: RunConfig, op):
    rep = equivalence_test(trials=cfg.trials, seed=cfg.seed)
    failures = []
    if not rep.passed:
        failures.append(f"{rep.violations} equivalence violations")
    return "property,trials,violations,worst_ratio", _suite_rows(rep, "equivalence"), failures, None


def _energy_audit(cfg: RunConfig, op):
    model, source, u0 = _problem(cfg)
    traj = integrate(cfg.method, u0, cfg.T, cfg.n_steps, model, source)
    rep = energy_audit(traj, source, model, op)
    rows = [("experiment", cfg.experiment), ("method", cfg.method),
            ("slack_energy_sum", rep.slack["energy_sum"]),
            ("slack_objective_monotonicity", rep.slack["objective_monotonicity"]),
            ("slack_v_bound", rep.slack["v_bound"]), ("budget", rep.budget),
            ("passed", rep.passed)]
    failures = []
    if not rep.passed:
        failures.append(f"energy audit violations: {rep.violations}")
    if not source.terms:
        hn = np.sqrt(rep.h_norms_sq)
        if np.any(hn[1:] > hn[:-1] * (1 + 1e-12)):
            failures.append("h-norm increased on a homogeneous run")
        rows.append(("h_norm_nonincreasing", not failures))
    return "key,value", rows, failures, traj


def _geometry_suites(cfg: RunConfig, op):
    curv = curvature_suite(cfg.N, cfg.r, cfg.trials, cfg.seed)
    proj = projection_regularity_suite(cfg.N, cfg.r, cfg.trials, cfg.seed)
    model = rotating_diffusion(1.0, 0.25, 1.0)
    tang = tangency_suite(cfg.N, cfg.r, max(1, cfg.trials // 2), cfg.seed, model)
    rows, failures = [], []
    for name, rep in (("curvature", curv), ("projection", proj), ("tangency", tang)):
        rows += _suite_rows(rep, name)
        if not rep.passed:
            failures.append(f"{name} suite: {rep.violations} violations")
    return "property,trials,violations,worst_ratio", rows, failures, None


def _diagonal_alpha(cfg: RunConfig):
    if cfg.alpha.kind != "constant" or cfg.alpha.a12 != 0.0:
        raise ConfigError("heat-diagonal needs a constant diagonal alpha")


def _distinct_step_counts(cfg: RunConfig):
    if cfg.n_steps < 16:
        raise ConfigError("convergence-h needs n_steps >= 16 (it also runs n_steps / 16)")


class Experiment(NamedTuple):
    """What an experiment reads: ``run(cfg, op)`` returns (report header,
    rows, failures, trajectory or None); ``reads`` maps each global key it
    reads, besides ``_READ_BY_ALL``, to its default; ``check`` raises
    ConfigError for a config outside its own restrictions."""
    run: Callable
    reads: dict
    alpha: bool = True
    source: bool = True
    check: Callable = lambda cfg: None


def _reads(*keys, **defaults) -> dict:
    """``{key: default}``, RunConfig's default for each key not given one."""
    return {key: getattr(RunConfig, key) for key in keys} | defaults


_TRAJECTORY = ("N", "r", "T", "n_steps", "method")

EXPERIMENTS = {
    "heat-diagonal": Experiment(_heat_diagonal, _reads(*_TRAJECTORY), source=False,
                                check=_diagonal_alpha),
    "anisotropic": Experiment(_anisotropic, _reads(*_TRAJECTORY, "seed")),
    "convergence-h": Experiment(_convergence_h, _reads(*_TRAJECTORY),
                                check=_distinct_step_counts),
    "convergence-rank": Experiment(_convergence_rank, _reads(*_TRAJECTORY)),
    "equivalence": Experiment(_equivalence, _reads("seed", "trials"), alpha=False,
                              source=False),
    "energy-audit": Experiment(_energy_audit, _reads(*_TRAJECTORY, "seed")),
    "geometry-suites": Experiment(_geometry_suites, _reads("N", "r", "seed", trials=1000),
                                  alpha=False, source=False),
}


class _WarningLog(logging.Handler):
    """Collects the package's warnings for run.log; echoes them to stderr unless quiet."""

    def __init__(self, quiet: bool):
        super().__init__(logging.WARNING)
        self.quiet = quiet
        self.lines: list = []

    def emit(self, record):
        line = f"warning: {record.getMessage()}"
        self.lines.append(line)
        if not self.quiet:
            print(line, file=sys.stderr)


def run(cfg: RunConfig, quiet: bool = False, gnuplot: bool = False) -> int:
    """Execute one experiment; writes artifacts into cfg.output_dir.

    Warnings the package logs during the run are written to run.log, and to
    stderr unless ``quiet``; they do not propagate to other log handlers.
    Returns 2, and runs nothing, if the config fails validation (then
    nothing is made either) or if the output directory cannot be made.
    """
    out = Path(cfg.output_dir)
    try:
        _validate(cfg)
        out.mkdir(parents=True, exist_ok=True)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot make the output directory: {exc}", file=sys.stderr)
        return 2
    log_lines = ["config:"]
    # the output path is where the log lives, not a run parameter; leaving it
    # out keeps logs byte-identical across relocated reruns
    log_lines += ["  " + line for line in serialize_config(cfg).strip().splitlines()
                  if not line.startswith("output_dir")]
    op = build_operator(cfg.N)
    logger = logging.getLogger(__package__)
    warnings = _WarningLog(quiet)
    propagate = logger.propagate
    logger.addHandler(warnings)
    logger.propagate = False
    try:
        report_header, report_rows, failures, traj = EXPERIMENTS[cfg.experiment].run(cfg, op)
    except (RankDeficiencyError, InnerSolveError, np.linalg.LinAlgError) as exc:
        log_lines += warnings.lines
        log_lines.append(f"numerical failure: {exc}")
        log_lines.append("status: 3")
        (out / "run.log").write_text("\n".join(log_lines) + "\n")
        if not quiet:
            print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    finally:
        logger.removeHandler(warnings)
        logger.propagate = propagate

    if traj is not None:
        _write_trajectory(out, traj, op)
        _write_diagnostics(out, traj)
        if gnuplot:
            _write_gnuplot(out)
    _write_csv(out / "report.csv", report_header, report_rows)
    for row in report_rows:
        log_lines.append("  ".join(_fmt(x) for x in row))
    log_lines += warnings.lines
    status = 1 if failures else 0
    for f in failures:
        log_lines.append(f"violation: {f}")
    log_lines.append(f"status: {status}")
    (out / "run.log").write_text("\n".join(log_lines) + "\n")
    if not quiet:
        for f in failures:
            print(f"violation: {f}", file=sys.stderr)
        print(f"{cfg.experiment}: {'ok' if status == 0 else 'FAILED'} (artifacts in {out})")
    return status


# ---------------------------------------------------------------------------
# entry point


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="lowrankpde",
                                     description="rank-constrained diffusion experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a config file")
    runp.add_argument("config", help="path to a key = value config file")
    runp.add_argument("--seed", type=int, default=None, help="override the config seed")
    runp.add_argument("--out", default=None, help="override the output directory")
    runp.add_argument("--quiet", action="store_true", help="suppress stdout chatter")
    runp.add_argument("--gnuplot", action="store_true",
                      help="also emit a gnuplot script for the trajectory")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(text)
        if args.seed is not None:
            if "seed" not in EXPERIMENTS[cfg.experiment].reads:
                raise ConfigError(_unread("--seed", cfg.experiment))
            cfg = replace(cfg, seed=args.seed)
        if args.out is not None:
            cfg = replace(cfg, output_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(cfg, quiet=args.quiet, gnuplot=args.gnuplot)


if __name__ == "__main__":
    sys.exit(main())
