"""Command-line runner.

Usage:  lowrankpde run CONFIG [--seed S] [--out DIR] [--quiet] [--gnuplot]

Configs are line-oriented ``key = value`` files with optional ``[alpha]``
and ``[source]`` sections; unknown keys are rejected with their line
number.  Runs are bit-reproducible for a fixed (config, seed) pair: every
artifact (trajectory.csv, diagnostics.csv, report.csv, run.log) is written
deterministically, floats at 17 significant digits, no timestamps.

Exit status: 0 all asserted properties passed, 1 a property was violated,
2 the config failed to parse or validate, 3 a numerical failure occurred.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .analysis import (convergence_study, curvature_suite, energy_audit, equivalence_test,
                       interpolant_gap, projection_regularity_suite, sample_state,
                       tangency_suite)
from .galerkin import (DiffusionModel, SourceSpec, TimeProfile, build_operator,
                       constant_diffusion, exact_diagonal_solution, h_norm,
                       rotating_diffusion, separable_source, v_norm, zero_source)
from .manifold import LowRankState, RankDeficiencyError, to_dense
from .stepping import InnerSolveError, StepOptions, Trajectory, integrate

__all__ = ["AlphaSpec", "ConfigError", "RunConfig", "SourceTermSpec", "main",
           "parse_config", "run", "serialize_config"]

EXPERIMENTS = ("heat-diagonal", "anisotropic", "convergence-h", "convergence-rank",
               "equivalence", "energy-audit", "geometry-suites")
METHODS = ("als", "splitting", "reference")


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
    trials: int = 0                        # 0 = experiment default
    output_dir: str = "out"
    alpha: AlphaSpec = field(default_factory=AlphaSpec)
    source: tuple = ()


# ---------------------------------------------------------------------------
# parsing

_GLOBAL_KEYS = {"experiment", "N", "r", "T", "n_steps", "method", "seed",
                "trials", "output_dir"}
_ALPHA_KEYS = {"kind", "a11", "a12", "a22", "lambda1", "lambda2", "omega"}


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
            pairs.append((int(idx_s), float(coeff_s)))
        except ValueError:
            raise ConfigError(f"bad mode entry {chunk!r}", line) from None
    if not pairs:
        raise ConfigError("empty mode list", line)
    return tuple(pairs)


def _parse_term(value: str, line: int) -> SourceTermSpec:
    """term syntax:  <profile> | p = <modes> | q = <modes>
    profile: constant:<c> | linear:<c> | cosine:<c>:<omega>
    modes:   comma list of  index:coeff"""
    fields = [f.strip() for f in value.split("|")]
    if len(fields) != 3:
        raise ConfigError("term needs three |-separated fields: profile | p = ... | q = ...",
                          line)
    prof = fields[0].split(":")
    kind = prof[0].strip()
    try:
        if kind in ("constant", "linear") and len(prof) == 2:
            scale, omega = float(prof[1]), 0.0
        elif kind == "cosine" and len(prof) == 3:
            scale, omega = float(prof[1]), float(prof[2])
        else:
            raise ValueError
    except ValueError:
        raise ConfigError(f"bad time profile {fields[0]!r}", line) from None
    sides = {}
    for part in fields[1:]:
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
    values: dict = {}
    alpha_values: dict = {}
    terms: list = []
    section = None
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in ("alpha", "source"):
                raise ConfigError(f"unknown section [{section}]", lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"expected key = value, got {line!r}", lineno)
        key, value = (s.strip() for s in line.split("=", 1))
        if section is None:
            if key not in _GLOBAL_KEYS:
                raise ConfigError(f"unknown key {key!r}", lineno)
            if key in seen:
                raise ConfigError(f"duplicate key {key!r}", lineno)
            seen.add(key)
            values[key] = (value, lineno)
        elif section == "alpha":
            if key not in _ALPHA_KEYS:
                raise ConfigError(f"unknown key {key!r} in [alpha]", lineno)
            if ("alpha", key) in seen:
                raise ConfigError(f"duplicate key {key!r} in [alpha]", lineno)
            seen.add(("alpha", key))
            alpha_values[key] = (value, lineno)
        else:
            if key != "term":
                raise ConfigError(f"unknown key {key!r} in [source]", lineno)
            terms.append(_parse_term(value, lineno))

    def take(name, conv, default):
        if name not in values:
            return default
        value, lineno = values.pop(name)
        try:
            return conv(value)
        except ValueError:
            raise ConfigError(f"bad value for {name}: {value!r}", lineno) from None

    cfg = RunConfig(
        experiment=take("experiment", str, "heat-diagonal"),
        N=take("N", int, 32),
        r=take("r", int, 2),
        T=take("T", float, 0.1),
        n_steps=take("n_steps", int, 100),
        method=take("method", str, "als"),
        seed=take("seed", int, 0),
        trials=take("trials", int, 0),
        output_dir=take("output_dir", str, "out"),
        alpha=_build_alpha(alpha_values),
        source=tuple(terms),
    )
    _validate(cfg)
    return cfg


def _build_alpha(raw: dict) -> AlphaSpec:
    def take(name, default):
        if name not in raw:
            return default
        value, lineno = raw[name]
        try:
            return float(value) if name != "kind" else value
        except ValueError:
            raise ConfigError(f"bad value for {name}: {value!r}", lineno) from None

    kind = take("kind", "constant")
    spec = AlphaSpec(kind=kind, a11=take("a11", 0.02), a12=take("a12", 0.0),
                     a22=take("a22", 0.02), lambda1=take("lambda1", 1.0),
                     lambda2=take("lambda2", 1.0), omega=take("omega", 0.0))
    first_line = min((l for _, l in raw.values()), default=None)
    if kind not in ("constant", "rotation"):
        raise ConfigError(f"unknown alpha kind {kind!r}", first_line)
    if kind == "constant":
        if spec.a11 <= 0 or spec.a11 * spec.a22 - spec.a12 ** 2 <= 0:
            raise ConfigError("alpha is not positive definite", first_line)
    else:
        if spec.lambda1 <= 0 or spec.lambda2 <= 0:
            raise ConfigError("alpha is not positive definite", first_line)
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
    if cfg.trials < 0:
        raise ConfigError("trials must be >= 0")
    for term in cfg.source:
        for side in (term.p, term.q):
            for mode, _ in side:
                if not 1 <= mode <= cfg.N:
                    raise ConfigError(f"source mode {mode} outside 1..{cfg.N}")
    if cfg.experiment == "heat-diagonal":
        if cfg.alpha.kind != "constant" or cfg.alpha.a12 != 0.0:
            raise ConfigError("heat-diagonal needs a constant diagonal alpha")
        if cfg.source:
            raise ConfigError("heat-diagonal is a homogeneous preset (no source terms)")


def serialize_config(cfg: RunConfig) -> str:
    """Canonical text form; parse(serialize(parse(s))) == parse(s)."""
    out = [
        f"experiment = {cfg.experiment}",
        f"N = {cfg.N}",
        f"r = {cfg.r}",
        f"T = {_fmt(cfg.T)}",
        f"n_steps = {cfg.n_steps}",
        f"method = {cfg.method}",
        f"seed = {cfg.seed}",
        f"trials = {cfg.trials}",
        f"output_dir = {cfg.output_dir}",
        "",
        "[alpha]",
        f"kind = {cfg.alpha.kind}",
    ]
    if cfg.alpha.kind == "constant":
        out += [f"a11 = {_fmt(cfg.alpha.a11)}", f"a12 = {_fmt(cfg.alpha.a12)}",
                f"a22 = {_fmt(cfg.alpha.a22)}"]
    else:
        out += [f"lambda1 = {_fmt(cfg.alpha.lambda1)}",
                f"lambda2 = {_fmt(cfg.alpha.lambda2)}",
                f"omega = {_fmt(cfg.alpha.omega)}"]
    if cfg.source:
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
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return "nan"
    return f"{x:.17g}"


def config_model(cfg: RunConfig) -> DiffusionModel:
    a = cfg.alpha
    if a.kind == "constant":
        return constant_diffusion([[a.a11, a.a12], [a.a12, a.a22]])
    return rotating_diffusion(a.lambda1, a.lambda2, a.omega)


def config_source(cfg: RunConfig) -> SourceSpec:
    if not cfg.source:
        return zero_source(cfg.N)
    terms = []
    for term in cfg.source:
        p = np.zeros(cfg.N)
        q = np.zeros(cfg.N)
        for mode, coeff in term.p:
            p[mode - 1] += coeff
        for mode, coeff in term.q:
            q[mode - 1] += coeff
        terms.append((TimeProfile(term.profile, term.scale, term.omega), p, q))
    return separable_source(cfg.N, terms)


def initial_state(cfg: RunConfig) -> LowRankState:
    """Experiment-defined start: mode-diagonal for the diagonal presets and
    the convergence sweeps, a seeded random state otherwise."""
    if cfg.experiment in ("heat-diagonal", "convergence-h", "convergence-rank"):
        u1 = np.zeros((cfg.N, cfg.r))
        u2 = np.zeros((cfg.N, cfg.r))
        for k in range(cfg.r):
            u1[k, k] = 1.0
            u2[k, k] = 1.0
        return LowRankState(u1, np.eye(cfg.r), u2)
    rng = np.random.default_rng([cfg.seed, 0])
    return sample_state(rng, cfg.N, cfg.r, sigma_range=(1e-2, 1.0))


# ---------------------------------------------------------------------------
# artifact writers


def _write_csv(path: Path, header: str, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_fmt(x) if not isinstance(x, str) else x for x in row))
    path.write_text("\n".join(lines) + "\n")


def _write_trajectory(out: Path, traj: Trajectory, op):
    rows = []
    for i, t in enumerate(traj.times):
        y = to_dense(traj.states[i]) if isinstance(traj.states[i], LowRankState) \
            else traj.states[i]
        if i == 0:
            resid, obj = math.nan, math.nan
            sigma = (float(np.linalg.svd(traj.states[i].core, compute_uv=False)[-1])
                     if isinstance(traj.states[i], LowRankState) else math.nan)
        else:
            d = traj.diagnostics[i - 1]
            resid, obj, sigma = d.galerkin_residual, d.objective_value, d.sigma_r
        rows.append((i, float(t), h_norm(y), v_norm(op, y), sigma, resid, obj))
    _write_csv(out / "trajectory.csv",
               "step,t,h_norm,v_norm,sigma_r,galerkin_residual,objective", rows)


def _write_diagnostics(out: Path, traj: Trajectory):
    rows = [(i + 1, d.sweeps_used, d.galerkin_residual, d.objective_value, d.sigma_r,
             "true" if d.objective_decreased else "false")
            for i, d in enumerate(traj.diagnostics)]
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


def _suite_rows(report, prefix):
    rows = []
    for name in sorted(report.worst_ratio):
        rows.append((f"{prefix}.{name}", report.trials, report.violations,
                     report.worst_ratio[name]))
    return rows


class _WarningLog(logging.Handler):
    """Collects the package's warnings for run.log; echoes them to stderr
    unless quiet."""

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
    """
    logger = logging.getLogger(__package__)
    warnings = _WarningLog(quiet)
    propagate = logger.propagate
    logger.addHandler(warnings)
    logger.propagate = False
    try:
        return _run(cfg, quiet, gnuplot, warnings.lines)
    finally:
        logger.removeHandler(warnings)
        logger.propagate = propagate


def _run(cfg: RunConfig, quiet: bool, gnuplot: bool, warnings: list) -> int:
    out = Path(cfg.output_dir)
    log_lines = ["config:"]
    # the output path is where the log lives, not a run parameter; leaving it
    # out keeps logs byte-identical across relocated reruns
    log_lines += ["  " + line for line in serialize_config(cfg).strip().splitlines()
                  if not line.startswith("output_dir")]
    report_rows: list = []
    report_header = "key,value"
    failures: list = []
    traj = None
    op = build_operator(cfg.N)

    try:
        if cfg.experiment == "heat-diagonal":
            model = config_model(cfg)
            source = config_source(cfg)
            u0 = initial_state(cfg)
            traj = integrate(cfg.method, u0, cfg.T, cfg.n_steps, model, source)
            oracle = to_dense(exact_diagonal_solution(op, model, u0, cfg.T))
            final = to_dense(traj.states[-1]) if isinstance(traj.states[-1], LowRankState) \
                else traj.states[-1]
            err = h_norm(final - oracle)
            threshold = 5e-3
            if err > threshold:
                failures.append(f"final error {err:.3e} above {threshold:.1e}")
            report_rows = [("experiment", cfg.experiment), ("method", cfg.method),
                           ("n_steps", cfg.n_steps), ("final_error", err),
                           ("error_threshold", threshold),
                           ("passed", not failures)]

        elif cfg.experiment == "anisotropic":
            model = config_model(cfg)
            source = config_source(cfg)
            u0 = initial_state(cfg)
            traj = integrate(cfg.method, u0, cfg.T, cfg.n_steps, model, source)
            gap = interpolant_gap(traj)
            h = traj.step_size
            increments = sum(
                h_norm(to_dense(traj.states[i]) - to_dense(traj.states[i - 1])) ** 2
                for i in range(1, len(traj.states)))
            identity_gap = abs(gap - h / 3.0 * increments)
            if identity_gap > 1e-12 * max(gap, 1.0):
                failures.append(f"interpolant identity off by {identity_gap:.3e}")
            not_monotone = [i + 1 for i, d in enumerate(traj.diagnostics)
                            if not d.objective_decreased]
            if not_monotone and cfg.method != "reference":
                failures.append(f"objective increased at steps {not_monotone}")
            report_rows = [("experiment", cfg.experiment), ("method", cfg.method),
                           ("interpolant_gap", gap),
                           ("interpolant_identity_error", identity_gap),
                           ("objective_monotone", not not_monotone),
                           ("halted_early", traj.halted_early is not None),
                           ("passed", not failures)]

        elif cfg.experiment in ("convergence-h", "convergence-rank"):
            model = config_model(cfg)
            source = config_source(cfg)
            u0 = initial_state(cfg)
            report_header = "parameter,error,observed_order"
            if cfg.experiment == "convergence-h":
                counts = tuple(max(1, cfg.n_steps // 2 ** k) for k in range(4, -1, -1))
                table = convergence_study("step", u0, cfg.T, model, source,
                                          method=cfg.method, step_counts=counts)
                model_exact = model.diagonal and not model.time_dependent and not source.terms
                if model_exact and len(table.rows) >= 2:
                    order = table.rows[-1].observed_order
                    if order is None or not 0.8 <= order <= 1.2:
                        failures.append(f"observed order {order} outside [0.8, 1.2]")
            else:
                table = convergence_study("rank", u0, cfg.T, model, source,
                                          method=cfg.method,
                                          ranks=range(1, cfg.r + 1), n_steps=cfg.n_steps)
            report_rows = [(_fmt(row.parameter), row.error,
                            "" if row.observed_order is None else _fmt(row.observed_order))
                           for row in table.rows]

        elif cfg.experiment == "equivalence":
            trials = cfg.trials or 50
            rep = equivalence_test(trials=trials, seed=cfg.seed)
            report_header = "property,trials,violations,worst_ratio"
            report_rows = _suite_rows(rep, "equivalence")
            if not rep.passed:
                failures.append(f"{rep.violations} equivalence violations")

        elif cfg.experiment == "energy-audit":
            model = config_model(cfg)
            source = config_source(cfg)
            u0 = initial_state(cfg)
            method = cfg.method if cfg.method != "reference" else "als"
            traj = integrate(method, u0, cfg.T, cfg.n_steps, model, source)
            rep = energy_audit(traj, source, model, op)
            report_header = "key,value"
            report_rows = [("experiment", cfg.experiment), ("method", method),
                           ("slack_energy_sum", rep.slack["energy_sum"]),
                           ("slack_objective_monotonicity",
                            rep.slack["objective_monotonicity"]),
                           ("slack_v_bound", rep.slack["v_bound"]),
                           ("budget", rep.budget), ("passed", rep.passed)]
            if not rep.passed:
                failures.append(f"energy audit violations: {rep.violations}")
            if not source.terms:
                hn = [h_norm(to_dense(u)) for u in traj.states]
                if any(hn[i] > hn[i - 1] * (1 + 1e-12) for i in range(1, len(hn))):
                    failures.append("h-norm increased on a homogeneous run")
                report_rows.append(("h_norm_nonincreasing", not failures))

        elif cfg.experiment == "geometry-suites":
            trials = cfg.trials or 1000
            report_header = "property,trials,violations,worst_ratio"
            curv = curvature_suite(cfg.N, cfg.r, trials, cfg.seed)
            proj = projection_regularity_suite(cfg.N, cfg.r, trials, cfg.seed)
            model = rotating_diffusion(1.0, 0.25, 1.0)
            tang = tangency_suite(cfg.N, cfg.r, max(1, trials // 2), cfg.seed, model)
            report_rows = (_suite_rows(curv, "curvature") + _suite_rows(proj, "projection")
                           + _suite_rows(tang, "tangency"))
            for name, rep in (("curvature", curv), ("projection", proj), ("tangency", tang)):
                if not rep.passed:
                    failures.append(f"{name} suite: {rep.violations} violations")

    except (RankDeficiencyError, InnerSolveError, np.linalg.LinAlgError) as exc:
        out.mkdir(parents=True, exist_ok=True)
        log_lines += warnings
        log_lines.append(f"numerical failure: {exc}")
        log_lines.append("status: 3")
        (out / "run.log").write_text("\n".join(log_lines) + "\n")
        if not quiet:
            print(f"numerical failure: {exc}", file=sys.stderr)
        return 3

    out.mkdir(parents=True, exist_ok=True)
    if traj is not None:
        _write_trajectory(out, traj, op)
        _write_diagnostics(out, traj)
        if gnuplot:
            _write_gnuplot(out)
    _write_csv(out / "report.csv", report_header, report_rows)
    for row in report_rows:
        log_lines.append("  ".join(_fmt(x) if not isinstance(x, str) else x for x in row))
    log_lines += warnings
    status = 1 if failures else 0
    for f in failures:
        log_lines.append(f"violation: {f}")
    log_lines.append(f"status: {status}")
    (out / "run.log").write_text("\n".join(log_lines) + "\n")
    if not quiet:
        for f in failures:
            print(f"violation: {f}", file=sys.stderr)
        print(f"{cfg.experiment}: {'ok' if status == 0 else 'FAILED'} "
              f"(artifacts in {out})")
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
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, output_dir=args.out)
    return run(cfg, quiet=args.quiet, gnuplot=args.gnuplot)


if __name__ == "__main__":
    sys.exit(main())
