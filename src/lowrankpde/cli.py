"""Command-line runner.

Usage:  lowrankpde run CONFIG [--out DIR] [--quiet]

Configs are line-oriented ``key = value`` files with optional ``[alpha]``
and ``[source]`` sections.  The dataclasses below are the schema: their
fields are the keys, their types the converters and their defaults the
defaults.  ``EXPERIMENTS`` declares, for each experiment, the function that
runs it, the global keys it reads (with its own defaults where they differ),
whether it reads ``[alpha]`` and ``[source]``, and its own restrictions.
Unknown keys, keys or sections the experiment does not read, and ``[alpha]``
keys of the other kind are rejected with their line number.  The config
is the run: the seed is one of its keys, and ``--out DIR`` (default ``out``)
only places the artifacts.  Runs are bit-reproducible for a fixed config:
every artifact (trajectory.csv, diagnostics.csv, report.csv, run.log) is
written deterministically, floats at 17 significant digits, no timestamps.

Exit status: 0 all asserted properties passed, 1 a property was violated,
2 the config failed to parse or validate or the output directory cannot be
made, 3 a numerical failure occurred.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from .analysis import (convergence_study, curvature_suite, energy_audit, equivalence_test,
                       projection_regularity_suite, sample_state, tangency_suite)
from .galerkin import (DiffusionModel, SourceSpec, TimeProfile, constant_diffusion,
                       exact_diagonal_solution, h_distance, h_norm, rotating_diffusion,
                       separable_source, v_norm)
from .manifold import LowRankState, RankDeficiencyError
from .stepping import METHODS, InnerSolveError, Trajectory, integrate

__all__ = ["AlphaSpec", "ConfigError", "RunConfig", "SourceTermSpec", "main",
           "parse_config", "serialize_config"]


class ConfigError(ValueError):
    def __init__(self, message: str, line: int | None = None):
        super().__init__(message if line is None else f"line {line}: {message}")


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
    return _parse(text)[0]


def _parse(text: str):
    """:func:`parse_config`, returning ``(cfg, model, source)`` as ``_validate`` built them."""
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
        if key != "experiment" and key not in exp.reads:
            raise ConfigError(f"{key!r} is not read by experiment {name!r}", lineno)
    for section, lineno in headers.items():
        if not getattr(exp, section):
            raise ConfigError(f"[{section}] is not read by experiment {name!r}", lineno)

    cfg = RunConfig(**{**exp.reads, **_convert(_GLOBALS, raw[None])},
                    alpha=AlphaSpec(**_convert(_ALPHA, raw["alpha"])), source=tuple(terms))
    built = _validate(cfg, alpha_line=min((l for _, l in raw["alpha"].values()), default=None))
    for key, (_, lineno) in raw["alpha"].items():
        if key != "kind" and key not in _ALPHA_KINDS[cfg.alpha.kind]:
            raise ConfigError(f"{key!r} is not a parameter of alpha kind {cfg.alpha.kind!r}",
                              lineno)
    return (cfg, *built)


def _validate(cfg: RunConfig, alpha_line: int | None):
    """Check every value of the parsed ``cfg``, read by the experiment or not
    (an unread one holds its default); return the model and source it runs."""
    if cfg.method not in METHODS:
        raise ConfigError(f"unknown method {cfg.method!r}")
    for name, low in (("N", 1), ("r", 1), ("n_steps", 1), ("seed", 0), ("trials", 1)):
        if getattr(cfg, name) < low:
            raise ConfigError(f"{name} must be >= {low}")
    if cfg.r > cfg.N:
        raise ConfigError("r must satisfy 1 <= r <= N")
    if cfg.T <= 0:
        raise ConfigError("T must be positive and finite")
    if cfg.alpha.kind not in _ALPHA_KINDS:
        raise ConfigError(f"unknown alpha kind {cfg.alpha.kind!r}", alpha_line)
    try:
        model = config_model(cfg)
    except ValueError as exc:
        raise ConfigError(f"bad [alpha]: {exc}", alpha_line) from None
    try:
        source = config_source(cfg)
    except ValueError as exc:
        raise ConfigError(f"bad [source]: {exc}") from None
    EXPERIMENTS[cfg.experiment].check(cfg, model)
    return model, source


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form of the keys and sections the experiment reads;
    parse(serialize(parse(s))) == parse(s)."""
    exp = EXPERIMENTS[cfg.experiment]
    out = [f"{name} = {_fmt(getattr(cfg, name))}" for name in _GLOBALS
           if name == "experiment" or name in exp.reads]
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


def config_model(cfg: RunConfig) -> DiffusionModel:
    """The model of ``cfg.alpha``; ValueError, with the model's message, if it refuses."""
    a = cfg.alpha
    if a.kind == "constant":
        return constant_diffusion([[a.a11, a.a12], [a.a12, a.a22]])
    return rotating_diffusion(a.lambda1, a.lambda2, a.omega)


def config_source(cfg: RunConfig) -> SourceSpec:
    """The source of ``cfg.source``; ValueError for a bad mode or term."""
    terms = []
    for term in cfg.source:
        p, q = np.zeros(cfg.N), np.zeros(cfg.N)
        for vec, side in ((p, term.p), (q, term.q)):
            for mode, coeff in side:
                if not 1 <= mode <= cfg.N:
                    raise ValueError(f"source mode {mode} outside 1..{cfg.N}")
                with np.errstate(over="ignore"):     # separable_source refuses the inf
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


def _write_steps(out: Path, traj: Trajectory):
    """trajectory.csv (one row per state, row 0 the start) and diagnostics.csv
    (one row per step) from one pass over the step records."""
    y0, steps = traj.states[0], []
    states = [(0, float(traj.times[0]), h_norm(y0), v_norm(y0), traj.start_sigma_r, math.nan,
               math.nan)]
    for i, (t, y, d) in enumerate(zip(traj.times[1:], traj.states[1:], traj.diagnostics), 1):
        states.append((i, float(t), h_norm(y), v_norm(y), d.sigma_r, d.galerkin_residual,
                       d.objective_value))
        steps.append((i, d.sweeps_used, d.galerkin_residual, d.objective_value, d.sigma_r,
                      d.objective_decreased))
    _write_csv(out / "trajectory.csv",
               "step,t,h_norm,v_norm,sigma_r,galerkin_residual,objective", states)
    _write_csv(out / "diagnostics.csv",
               "step,sweeps_used,galerkin_residual,objective_value,sigma_r,objective_decreased",
               steps)


# ---------------------------------------------------------------------------
# experiments


def _suite_rows(report, prefix):
    return [(f"{prefix}.{name}", report.trials, report.violations, report.worst_ratio[name])
            for name in sorted(report.worst_ratio)]


def _heat_diagonal(cfg: RunConfig, model: DiffusionModel, source: SourceSpec):
    u0 = initial_state(cfg)
    traj = integrate(cfg.method, u0, cfg.T, cfg.n_steps, model, source)
    t_end = cfg.T if traj.halted_early is None else traj.times[-1]   # where a halted run ends
    err = h_distance(traj.states[-1], exact_diagonal_solution(model, u0, t_end))
    threshold = 5e-3
    failures = []
    if traj.halted_early is not None:       # its last state is no state at T
        failures.append(f"the rank monitor halted the run at step {traj.halted_early} "
                        f"(t = {traj.times[-1]:.6g}), before T = {cfg.T:.6g}")
    elif err > threshold:
        failures.append(f"final error {err:.3e} above {threshold:.1e}")
    rows = [("experiment", cfg.experiment), ("method", cfg.method), ("n_steps", cfg.n_steps),
            ("final_error", err), ("error_threshold", threshold), ("passed", not failures)]
    return "key,value", rows, failures, traj


def _anisotropic(cfg: RunConfig, model: DiffusionModel, source: SourceSpec):
    traj = integrate(cfg.method, initial_state(cfg), cfg.T, cfg.n_steps, model, source)
    rep = energy_audit(traj)
    gap, bound = rep.interpolant_gap, rep.rothe_bound
    failures = []
    if any(name == "rothe" for name, _, _ in rep.violations):
        failures.append(f"interpolant gap {gap:.3e} above its Rothe bound {bound:.3e}")
    not_monotone = [i for name, i, _ in rep.violations if name == "objective_monotonicity"]
    if not_monotone:
        failures.append(f"objective increased at steps {not_monotone}")
    rows = [("experiment", cfg.experiment), ("method", cfg.method), ("interpolant_gap", gap),
            ("interpolant_gap_bound", bound), ("objective_monotone", not not_monotone),
            ("halted_early", traj.halted_early is not None), ("passed", not failures)]
    return "key,value", rows, failures, traj


def _convergence_report(table, failures):
    rows = [(_fmt(row.parameter), row.error,
             "" if row.observed_order is None else _fmt(row.observed_order))
            for row in table.rows]
    return "parameter,error,observed_order", rows, failures, None


def _convergence_h(cfg: RunConfig, model: DiffusionModel, source: SourceSpec):
    """Five step counts, n_steps / 16 up to n_steps; the observed order is
    gated where the closed form is the oracle."""
    counts = tuple(cfg.n_steps // 2 ** k for k in range(4, -1, -1))
    table = convergence_study("step", initial_state(cfg), cfg.T, model, source,
                              method=cfg.method, step_counts=counts)
    failures = []
    if table.closed_form:
        order = table.rows[-1].observed_order
        if order is None or not 0.8 <= order <= 1.2:
            failures.append(f"observed order {order} outside [0.8, 1.2]")
    return _convergence_report(table, failures)


def _convergence_rank(cfg: RunConfig, model: DiffusionModel, source: SourceSpec):
    """Ranks 1 .. r at fixed step."""
    table = convergence_study("rank", initial_state(cfg), cfg.T, model, source, method=cfg.method,
                              n_steps=cfg.n_steps)
    return _convergence_report(table, [])


def _equivalence(cfg: RunConfig, model: DiffusionModel, source: SourceSpec):
    rep = equivalence_test(trials=cfg.trials, seed=cfg.seed)
    failures = []
    if not rep.passed:
        failures.append(f"{rep.violations} equivalence violations")
    return "property,trials,violations,worst_ratio", _suite_rows(rep, "equivalence"), failures, None


def _energy_audit(cfg: RunConfig, model: DiffusionModel, source: SourceSpec):
    traj = integrate(cfg.method, initial_state(cfg), cfg.T, cfg.n_steps, model, source)
    rep = energy_audit(traj)
    # gated on the estimates that carry a slack; rothe fails only where energy_sum does
    balance = [v for v in rep.violations if v[0] in rep.slack]
    failures = [f"energy audit violations: {balance}"] if balance else []
    rises = any(name == "h_norm_monotonicity" for name, _, _ in rep.violations)
    if rises:
        failures.append("h-norm increased on a homogeneous run")
    rows = [("experiment", cfg.experiment), ("method", cfg.method),
            *((f"slack_{name}", value) for name, value in rep.slack.items()),
            ("budget", rep.budget), ("passed", not failures)]
    if not source.profiles:
        rows.append(("h_norm_nonincreasing", not rises))
    return "key,value", rows, failures, traj


def _geometry_suites(cfg: RunConfig, model: DiffusionModel, source: SourceSpec):
    curv = curvature_suite(cfg.N, cfg.r, cfg.trials, cfg.seed)
    proj = projection_regularity_suite(cfg.N, cfg.r, cfg.trials, cfg.seed)
    tang = tangency_suite(cfg.N, cfg.r, max(1, cfg.trials // 2), cfg.seed)
    rows, failures = [], []
    for name, rep in (("curvature", curv), ("projection", proj), ("tangency", tang)):
        rows += _suite_rows(rep, name)
        if not rep.passed:
            failures.append(f"{name} suite: {rep.violations} violations")
    return "property,trials,violations,worst_ratio", rows, failures, None


def _diagonal_alpha(cfg: RunConfig, model: DiffusionModel):
    if not model.constant_diagonal:
        raise ConfigError("heat-diagonal needs a constant diagonal alpha")


def _distinct_step_counts(cfg: RunConfig, model: DiffusionModel):
    if cfg.n_steps < 16:
        raise ConfigError("convergence-h needs n_steps >= 16 (it also runs n_steps / 16)")


class Experiment(NamedTuple):
    """What an experiment reads: ``run(cfg, model, source)`` returns (report
    header, rows, failures, trajectory or None); ``reads`` maps each global
    key it reads, besides ``experiment``, to its default; ``check(cfg, model)``
    raises ConfigError for a config outside its own restrictions."""
    run: Callable
    reads: dict
    alpha: bool = True
    source: bool = True
    check: Callable = lambda cfg, model: None


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


def _run(cfg: RunConfig, model: DiffusionModel, source: SourceSpec, out: Path, quiet: bool) -> int:
    """Execute ``cfg`` on the model and source its parse built and report the
    outcome (status 0, 1 or 3) once, into the existing directory ``out``:
    report.csv and the trajectory artifacts unless status 3, run.log, then,
    unless ``quiet``, the notes to stderr and, unless status 3, a summary to
    stdout.  The package's warnings go to run.log, and to stderr as they come
    unless ``quiet``; they do not propagate to other log handlers."""
    logger = logging.getLogger(__package__)
    warnings = _WarningLog(quiet)
    propagate = logger.propagate
    logger.addHandler(warnings)
    logger.propagate = False
    try:
        header, rows, failures, traj = EXPERIMENTS[cfg.experiment].run(cfg, model, source)
        notes, status = [f"violation: {f}" for f in failures], 1 if failures else 0
    except (RankDeficiencyError, InnerSolveError, np.linalg.LinAlgError) as exc:
        rows, notes, status = [], [f"numerical failure: {exc}"], 3
    finally:
        logger.removeHandler(warnings)
        logger.propagate = propagate

    if status != 3:
        if traj is not None:
            _write_steps(out, traj)
        _write_csv(out / "report.csv", header, rows)
    config = ["  " + line for line in serialize_config(cfg).strip().splitlines()]
    (out / "run.log").write_text("\n".join(
        ["config:", *config, *("  ".join(_fmt(x) for x in row) for row in rows),
         *warnings.lines, *notes, f"status: {status}"]) + "\n")
    if not quiet:
        for note in notes:
            print(note, file=sys.stderr)
        if status != 3:
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
    runp.add_argument("--out", default="out", help="output directory (default: out)")
    runp.add_argument("--quiet", action="store_true",
                      help="no summary on stdout; the notes and warnings go to run.log only")
    args = parser.parse_args(argv)

    try:
        cfg, *built = _parse(Path(args.config).read_text())
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if not args.out.strip():                 # Path("") is the working directory
        print("config error: the output directory must not be empty", file=sys.stderr)
        return 2
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"cannot make the output directory: {exc}", file=sys.stderr)
        return 2
    return _run(cfg, *built, out, args.quiet)


if __name__ == "__main__":
    sys.exit(main())
