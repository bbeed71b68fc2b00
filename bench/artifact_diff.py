"""Compare the CLI artifacts of this tree with those of another source tree.

Runs ``lowrankpde run`` on each config twice, once importing the package
from this tree's ``src/`` and once from ``DIR/src``, and reports each
artifact file as byte-identical, or else, for a CSV file, the largest
absolute and relative difference of each numeric column that differs:

    python3 bench/artifact_diff.py --against DIR [--config NAME ...]

``--config`` restricts the run to the named configs.  The configs are the
four files of ``perfbench/configs`` (read, never written) and the variants
in ``VARIANTS``, written by ``cli.serialize_config`` to a temporary
directory with the artifacts.  Each run is a child process of
``measuring._child_row`` with BLAS on one thread; a CLI exit status other
than 0, 1 or 3, or a traceback, stops the comparison with an error.  The
exit status is 0 when every file of every config is byte-identical and both
sides exit alike, 1 otherwise.
"""

import argparse
import csv
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH_CONFIGS = ROOT / "perfbench" / "configs"

#: Configs besides those of perfbench/configs: a base config (a file there,
#: or None for the defaults) and the ``RunConfig`` fields it changes, alpha
#: as ``AlphaSpec`` keywords and source as ``SourceTermSpec`` field tuples.
#: They are the anisotropic config with the two other methods, the energy-audit
#: config without its source (the one run that reports h_norm_nonincreasing)
#: and with splitting, the experiments the benchmark does not run, a
#: heat-diagonal run that the rank monitor halts before T (at step 607 of 1000)
#: and one on the reference method (no mixed term, so no CG), a convergence-h
#: run whose 64-step run the monitor halts (the numerical failure, exit 3) and
#: one that the closed form checks, through the order gate.
VARIANTS = {
    "anisotropic-splitting": ("anisotropic", {"method": "splitting"}),
    "anisotropic-reference": ("anisotropic", {"method": "reference"}),
    "energy-audit-homogeneous": ("energy-audit", {"source": ()}),
    "energy-audit-splitting": ("energy-audit", {"method": "splitting"}),
    "heat-diagonal": (None, {}),
    "convergence-h": (None, {"experiment": "convergence-h", "N": 16, "r": 3, "T": 0.2,
        "n_steps": 64, "alpha": {"kind": "rotation", "lambda1": 1.0, "lambda2": 0.1, "omega": 1.0},
        "source": (("cosine", 0.5, 2.0, ((1, 1.0),), ((2, 1.0),)),)}),
    "equivalence": (None, {"experiment": "equivalence"}),
    "heat-diagonal-halted": (None, {"N": 8, "r": 2, "T": 0.8, "n_steps": 1000,
        "alpha": {"kind": "constant", "a11": 1.0, "a22": 1.0}}),
    "heat-diagonal-reference": (None, {"method": "reference"}),
    "convergence-h-halted": (None, {"experiment": "convergence-h", "N": 8, "r": 2, "T": 0.8,
        "n_steps": 64, "alpha": {"kind": "constant", "a11": 1.0, "a22": 1.0}}),
    "convergence-h-closed-form": (None, {"experiment": "convergence-h", "N": 8, "r": 2,
        "T": 0.1, "n_steps": 64, "alpha": {"kind": "constant", "a11": 1.0, "a22": 0.5}}),
}


def variant_text(name: str) -> str:
    """The text of the variant config ``name``, written by ``serialize_config``."""
    import measuring  # noqa: F401  (puts src/ on the path; here, as in run_cli)
    from lowrankpde import cli

    base, changes = VARIANTS[name]
    cfg = cli.RunConfig() if base is None else \
        cli.parse_config((PERFBENCH_CONFIGS / f"{base}.cfg").read_text())
    if "alpha" in changes:
        changes = changes | {"alpha": cli.AlphaSpec(**changes["alpha"])}
    if "source" in changes:
        changes = changes | {"source": tuple(cli.SourceTermSpec(*t) for t in changes["source"])}
    return cli.serialize_config(replace(cfg, **changes))


CONFIGS = [path.stem for path in sorted(PERFBENCH_CONFIGS.glob("*.cfg"))] + list(VARIANTS)


def scan_row(config: str, out: str) -> int:
    """Exit status of ``lowrankpde run config --out out --quiet``: the row of
    a child of ``run_cli``, which has imported the package from its tree."""
    from lowrankpde import cli

    status = cli.main(["run", config, "--out", out, "--quiet"])
    if status not in (0, 1, 3):
        raise RuntimeError(f"lowrankpde run {config} exited {status}")
    return status


def run_cli(src: Path, config: Path, out: Path) -> int:
    """Exit status (0, 1 or 3) of ``lowrankpde run config --out out --quiet``
    on the package in ``src``, run in a child process."""
    import measuring  # here, so that loading this module leaves BLAS and sys.path alone

    return measuring._child_row(src, "artifact_diff", [str(config), str(out)])


def _float(text: str):
    try:
        return float(text)
    except ValueError:
        return None


def csv_differences(ours: Path, theirs: Path) -> list:
    """One entry per column that differs: ``column: max abs A rel R`` over
    the numeric cells, plus the count of differing text cells, and one
    entry for a different row count or header."""
    (head_a, *rows_a), (head_b, *rows_b) = (list(csv.reader(p.read_text().splitlines()))
                                             for p in (ours, theirs))
    if head_a != head_b:
        return [f"header {','.join(head_a)} vs {','.join(head_b)}"]
    notes = [f"rows {len(rows_a)} vs {len(rows_b)}"] if len(rows_a) != len(rows_b) else []
    for j, column in enumerate(head_a):
        worst_abs = worst_rel = 0.0
        text = 0
        for row_a, row_b in zip(rows_a, rows_b):
            a, b = row_a[j], row_b[j]
            if a == b:
                continue
            x, y = _float(a), _float(b)
            if x is None or y is None or x == y:      # also "0" against "-0"
                text += 1
            elif not (math.isfinite(x) and math.isfinite(y)):
                worst_abs = worst_rel = math.inf
            else:
                worst_abs = max(worst_abs, abs(x - y))
                worst_rel = max(worst_rel, abs(x - y) / max(abs(x), abs(y)))
        parts = ([f"max abs {worst_abs:.3g} rel {worst_rel:.3g}"] if worst_abs else []) \
            + ([f"{text} text cells"] if text else [])
        if parts:
            notes.append(f"{column}: " + ", ".join(parts))
    return notes


def compare_file(ours: Path, theirs: Path) -> str:
    """``identical``, or what differs between the two artifacts."""
    if not ours.exists() or not theirs.exists():
        return "only in " + ("this tree" if ours.exists() else "DIR")
    if ours.read_bytes() == theirs.read_bytes():
        return "identical"
    if ours.suffix == ".csv":
        return "differs: " + "; ".join(csv_differences(ours, theirs))
    lines = zip(ours.read_text().splitlines(), theirs.read_text().splitlines())
    first = next((i for i, (a, b) in enumerate(lines, start=1) if a != b), None)
    return "differs " + (f"from line {first}" if first else "in length")


def compare_config(name: str, against: Path, work: Path) -> bool:
    """Run config ``name`` on both trees and print one line per artifact;
    True if both exit alike and every artifact is byte-identical."""
    config = PERFBENCH_CONFIGS / f"{name}.cfg"
    if name in VARIANTS:
        config = work / f"{name}.cfg"
        config.write_text(variant_text(name))
    outs = work / name / "this", work / name / "against"
    status = [run_cli(src, config, out) for src, out in zip((ROOT / "src", against / "src"), outs)]
    same = status[0] == status[1]
    print(f"{name}: exit status {status[0]}" + ("" if same else f" vs {status[1]} in DIR"))
    files = sorted({p.name for out in outs if out.exists() for p in out.iterdir()})
    for file in files:
        verdict = compare_file(outs[0] / file, outs[1] / file)
        same &= verdict == "identical"
        print(f"  {file:16s} {verdict}")
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--against", type=Path, required=True, metavar="DIR",
                        help="the source tree to compare with (its src/ is imported)")
    parser.add_argument("--config", nargs="+", choices=CONFIGS, default=CONFIGS)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        same = [compare_config(name, args.against.resolve(), Path(tmp)) for name in args.config]
    print(f"{sum(same)} of {len(same)} configs byte-identical")
    return 0 if all(same) else 1


if __name__ == "__main__":
    sys.exit(main())
