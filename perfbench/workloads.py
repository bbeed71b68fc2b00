"""The benchmark's workloads: seeded inputs, one timed operation, checks.

An operation is one time step on the integrator workloads (timed as a
trajectory of ``steps`` steps from a fresh seeded start) and one CLI
experiment on ``cli-experiments``.  Every check compares the program's
output with something computed here, outside the timed region.
"""

from __future__ import annotations

import csv
import hashlib
import importlib
import math
import shutil
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import oracles
from spans import PACKAGE

#: Relative final-time error above which a trajectory counts as wrong.
REL_ERROR_TOL = 1e-2

#: Name of the span around each timed call.
ROOT_SPAN = "bench.op"

#: CPU seconds the reference kernel took on the machine the benchmark was
#: tuned on (see ``perfbench/README.md``); normalised times are scaled to it.
REF_NOMINAL_S = 0.03


def import_package(src: Path):
    """Import the package afresh from ``src``, dropping any loaded copy."""
    for key in [k for k in sys.modules if k == PACKAGE or k.startswith(PACKAGE + ".")]:
        del sys.modules[key]
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    pkg = importlib.import_module(PACKAGE)
    importlib.import_module(PACKAGE + ".cli")
    if Path(pkg.__file__).resolve().parent != (src / PACKAGE).resolve():
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {src}")
    return pkg


def smooth_start(rng: np.random.Generator, n: int, r: int):
    """Orthonormal factors from Gaussian blocks weighted by ``n^-2``, singular
    values geometric from 1 to 1e-2: a state diffusion could have produced."""
    weight = np.arange(1, n + 1, dtype=float)[:, None] ** -2.0
    u, _ = np.linalg.qr(rng.standard_normal((n, r)) * weight)
    v, _ = np.linalg.qr(rng.standard_normal((n, r)) * weight)
    return u, np.diag(np.geomspace(1.0, 1e-2, r)), v


def cosine_terms(rng: np.random.Generator, n: int, count: int):
    """``count`` smooth separable terms ``scale cos(omega t) p q^T``."""
    weight = np.arange(1, n + 1, dtype=float) ** -2.0
    terms = []
    for _ in range(count):
        p = rng.standard_normal(n) * weight
        q = rng.standard_normal(n) * weight
        terms.append((float(rng.uniform(0.5, 2.0)), float(rng.uniform(1.0, 10.0)),
                      p / np.linalg.norm(p), q / np.linalg.norm(q)))
    return terms


class Clock:
    """Times its block in wall and in process CPU seconds.  With a recorder,
    the package is traced for the duration of the block, which is recorded
    as the root span."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.wall_s = 0.0
        self.cpu_s = 0.0

    def __enter__(self):
        self._cpu = time.process_time()
        self._start = time.perf_counter()
        if self.recorder:
            self.recorder.install()
            self._span = self.recorder.begin(ROOT_SPAN)
        return self

    def __exit__(self, *exc):
        if self.recorder:
            self.recorder.end(self._span)
            self.recorder.uninstall()
        self.wall_s = time.perf_counter() - self._start
        self.cpu_s = time.process_time() - self._cpu
        return False


class ReferenceKernel:
    """Fixed work in the benchmark's own code, never in the package: a dense
    solve, elementwise passes over a 512 x 512 array and an interpreter loop,
    the three kinds of work the workloads do.  Timed in CPU seconds next to
    every operation, it measures how fast the shared machine runs at that
    moment; an operation's CPU time divided by it is the normalised time."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((768, 768)) + 64.0 * np.eye(768)
        self.rhs = rng.standard_normal((768, 4))
        self.array = rng.standard_normal((512, 512))

    def __call__(self) -> float:
        start = time.process_time()
        np.linalg.solve(self.matrix, self.rhs)
        work = self.array.copy()
        for _ in range(20):
            work *= 0.5
            work += self.array
        total = 0
        for i in range(100_000):
            total += i
        return time.process_time() - start


def best_rank_error(y: np.ndarray, r: int) -> float:
    """Frobenius distance from ``y`` to the nearest matrix of rank ``r``."""
    sv = np.linalg.svd(y, compute_uv=False)
    return float(np.sqrt(np.sum(sv[r:] ** 2)))


@dataclass
class Outcome:
    """One timed call: its wall time and what the checks found."""

    label: str
    wall_s: float
    cpu_s: float
    attempted: int
    failed: int = 0
    wrong: list = field(default_factory=list)
    rel_error: float = math.nan
    error_ratio: float = math.nan
    sweeps: list = field(default_factory=list)
    converged: list = field(default_factory=list)
    artifact_bytes: int = 0
    #: CPU seconds of the reference kernel around this call
    ref_s: float = math.nan

    @property
    def norm_s(self) -> float:
        """CPU seconds scaled to the speed at which the reference kernel
        takes ``REF_NOMINAL_S``."""
        return self.cpu_s * REF_NOMINAL_S / self.ref_s


# ---------------------------------------------------------------------------
# integrator workloads


@dataclass(frozen=True)
class IntegratorWorkload:
    name: str
    method: str
    n: int
    r: int
    h: float
    steps: int
    n_terms: int
    rotating: tuple = ()          # (lambda1, lambda2, omega) or () for diagonal
    diagonal: tuple = (1.0, 0.1)  # (a11, a22) when not rotating
    op_unit = "steps"

    def setup(self, src: Path, seed: int):
        pkg = import_package(src)
        pkg.build_operator(self.n)
        if self.rotating:
            model = pkg.rotating_diffusion(*self.rotating)
        else:
            a11, a22 = self.diagonal
            model = pkg.constant_diffusion([[a11, 0.0], [0.0, a22]])
        inputs = self.inputs(pkg, seed, 0)
        return {"pkg": pkg, "model": model, "first": inputs}

    def inputs(self, pkg, seed: int, index: int):
        rng = np.random.default_rng([seed, index])
        u, s, v = smooth_start(rng, self.n, self.r)
        terms = cosine_terms(rng, self.n, self.n_terms)
        source = pkg.separable_source(
            self.n, [(pkg.cosine_profile(c, w), p, q) for c, w, p, q in terms])
        return pkg.LowRankState(u, s, v), source, terms

    def run(self, ctx, seed: int, index: int, workdir: Path, recorder=None) -> Outcome:
        pkg = ctx["pkg"]
        u0, source, terms = ctx["first"] if index == 0 else self.inputs(pkg, seed, index)
        opts = pkg.StepOptions()
        errors = (pkg.RankDeficiencyError, pkg.InnerSolveError, np.linalg.LinAlgError)
        clock = Clock(recorder)
        try:
            with clock:
                traj = pkg.integrate(self.method, u0, self.steps * self.h, self.steps,
                                     ctx["model"], source, opts)
        except errors as exc:
            return Outcome(self.name, clock.wall_s, clock.cpu_s, self.steps,
                           failed=self.steps,
                           wrong=[f"{type(exc).__name__}: {exc}"])
        out = Outcome(self.name, clock.wall_s, clock.cpu_s, self.steps)
        for d in traj.diagnostics:
            out.sweeps.append(d.sweeps_used)
            out.converged.append(self.method != "als" or d.sweeps_used < opts.als_max_sweeps)
        # capped sweeps, the halt step and the steps never reached all fail
        out.failed = out.converged.count(False) + (self.steps - len(traj.diagnostics))
        if traj.halted_early is not None:
            out.failed += 1
        out.rel_error, out.error_ratio = self.errors(traj, u0, terms)
        if not out.rel_error <= REL_ERROR_TOL:
            out.failed = self.steps
            out.wrong.append(f"rel_error {out.rel_error:.3e} above {REL_ERROR_TOL:g}")
        return out

    def errors(self, traj, u0, terms):
        """``(rel_error, error_ratio)`` of the final state against the oracle."""
        y0 = u0.u1_factors @ u0.core @ u0.u2_factors.T
        last = traj.states[-1]
        y = last.u1_factors @ last.core @ last.u2_factors.T
        h = traj.times[-1] / self.steps
        if self.rotating:
            lam1, lam2, omega = self.rotating
            oracle = oracles.rotating_euler(y0, (lam1, lam2), omega, terms, h, self.steps)
        else:
            oracle = oracles.diagonal_euler(y0, *self.diagonal, terms, h, self.steps)
        err = float(np.linalg.norm(y - oracle))
        return err / float(np.linalg.norm(oracle)), err / best_rank_error(oracle, self.r)


# ---------------------------------------------------------------------------
# CLI workload


CONFIG_DIR = Path(__file__).resolve().parent / "configs"
EXPERIMENTS = ("convergence-rank", "anisotropic", "energy-audit", "geometry-suites")
#: The experiment whose final norm is checked against the full-rank oracle.
NORM_CHECKED = "energy-audit"


def _read_csv(path: Path):
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


@dataclass(frozen=True)
class CliWorkload:
    name: str = "cli-experiments"
    op_unit = "experiments"

    def setup(self, src: Path, seed: int):
        pkg = import_package(src)
        pkg.build_operator(32)
        cli = sys.modules[PACKAGE + ".cli"]
        configs = {e: (CONFIG_DIR / f"{e}.cfg").read_text() for e in EXPERIMENTS}
        parsed = {e: cli.parse_config(text) for e, text in configs.items()}
        return {"pkg": pkg, "cli": cli, "parsed": parsed, "digests": {},
                "max_sweeps": pkg.StepOptions().als_max_sweeps}

    def run(self, ctx, seed: int, index: int, workdir: Path, recorder=None) -> Outcome:
        experiment = EXPERIMENTS[index % len(EXPERIMENTS)]
        out_dir = workdir / f"{experiment}-{index}"
        argv = ["run", str(CONFIG_DIR / f"{experiment}.cfg"), "--out", str(out_dir),
                "--quiet"]
        with Clock(recorder) as clock:
            status = ctx["cli"].main(argv)
        out = Outcome(experiment, clock.wall_s, clock.cpu_s, 1)
        files = sorted(p for p in out_dir.iterdir() if p.is_file())
        out.artifact_bytes = sum(p.stat().st_size for p in files)
        if status != 0:
            out.wrong.append(f"{experiment}: exit status {status}")
        report = _read_csv(out_dir / "report.csv")
        if not _report_passed(report):
            out.wrong.append(f"{experiment}: report.csv does not pass")
        diag_path = out_dir / "diagnostics.csv"
        if diag_path.exists():
            for row in _read_csv(diag_path):
                sweeps = int(row["sweeps_used"])
                out.sweeps.append(sweeps)
                out.converged.append(sweeps < ctx["max_sweeps"])
        # artifacts are documented byte-identical across reruns
        digest = hashlib.sha256(b"".join(p.name.encode() + p.read_bytes()
                                         for p in files)).hexdigest()
        first = ctx["digests"].setdefault(experiment, digest)
        if digest != first:
            out.wrong.append(f"{experiment}: artifacts differ from the first run")
        if experiment == NORM_CHECKED:
            norm = float(_read_csv(out_dir / "trajectory.csv")[-1]["h_norm"])
            out.rel_error, out.error_ratio = self.norm_errors(ctx, norm)
            if not out.rel_error <= REL_ERROR_TOL:
                out.wrong.append(f"{experiment}: final norm off by {out.rel_error:.3e}")
        out.failed = int(bool(out.wrong) or not all(out.converged))
        shutil.rmtree(out_dir)
        return out

    def norm_errors(self, ctx, norm: float):
        """``(rel_error, error_ratio)`` of the final L2 norm the CLI wrote,
        against a full-rank oracle from the same start and source."""
        if "oracle" not in ctx:
            cfg = ctx["parsed"][NORM_CHECKED]
            u0 = ctx["cli"].initial_state(cfg)
            y0 = u0.u1_factors @ u0.core @ u0.u2_factors.T
            terms = [(t.scale, t.omega, _modes(cfg.N, t.p), _modes(cfg.N, t.q))
                     for t in cfg.source]
            a = cfg.alpha
            oracle = oracles.rotating_euler(y0, (a.lambda1, a.lambda2), a.omega, terms,
                                            cfg.T / cfg.n_steps, cfg.n_steps)
            ctx["oracle"] = (float(np.linalg.norm(oracle)), best_rank_error(oracle, cfg.r))
        ref, best = ctx["oracle"]
        return abs(norm - ref) / ref, abs(norm - ref) / best


def _modes(n: int, pairs) -> np.ndarray:
    vec = np.zeros(n)
    for mode, coeff in pairs:
        vec[mode - 1] += coeff
    return vec


def _report_passed(rows) -> bool:
    if rows and "key" in rows[0]:
        return any(r["key"] == "passed" and r["value"] == "true" for r in rows)
    if rows and "violations" in rows[0]:
        return all(int(r["violations"]) == 0 for r in rows)
    # convergence tables: finite, positive errors
    return bool(rows) and all(0.0 < float(r["error"]) < math.inf for r in rows)


WORKLOADS = {
    "als-rotating": IntegratorWorkload("als-rotating", "als", n=128, r=8, h=1e-3,
                                       steps=3, n_terms=2, rotating=(1.0, 0.25, 1.0)),
    "splitting-wide": IntegratorWorkload("splitting-wide", "splitting", n=512, r=8,
                                         h=1e-3, steps=5, n_terms=3,
                                         diagonal=(1.0, 0.1)),
    "cli-experiments": CliWorkload(),
}
