"""The package's public surface: one export list, each name of it read
outside the tests, and the bench scripts that import it."""

import ast
import dataclasses
import functools
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

import lowrankpde
from lowrankpde import analysis, cli, galerkin, manifold, stepping
from lowrankpde.cli import parse_config, serialize_config

ROOT = Path(__file__).resolve().parent.parent
MODULES = (analysis, galerkin, manifold, stepping)


def test_package_exports_the_module_lists():
    assert lowrankpde.__all__ == [name for module in MODULES for name in module.__all__]
    assert len(set(lowrankpde.__all__)) == len(lowrankpde.__all__)
    for module in MODULES:
        for name in module.__all__:
            assert getattr(lowrankpde, name) is getattr(module, name), name


#: The node fields that read a name: identifiers, attributes, imported names.
READS = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name"}


def reads(files, kinds=READS):
    """The names that the nodes of ``kinds`` read in ``files``; an
    identifier or attribute counts only in Load context, so an assignment
    such as ``self.line = line`` reads ``line`` the local, not the attribute."""
    return {getattr(node, kinds[type(node)]) for path in files
            for node in ast.walk(ast.parse(path.read_text()))
            if type(node) in kinds and isinstance(getattr(node, "ctx", ast.Load()), ast.Load)}


PACKAGE = [path for path in (ROOT / "src" / "lowrankpde").glob("*.py")
           if path.name != "__init__.py"]
BENCH = [*(ROOT / "bench").glob("*.py"), *(ROOT / "perfbench").glob("*.py")]


def test_every_export_has_a_reader_outside_the_tests():
    """Each name in ``lowrankpde.__all__`` and in ``lowrankpde.cli.__all__``
    is read by the package's modules (``__init__`` aside), the bench scripts
    or perfbench (its tests aside), as an identifier, attribute or imported
    name; a string, such as an ``__all__`` entry or a docstring, is no read.
    A name only the tests read is an oracle and belongs in
    ``tests/dense_oracles.py``.  The check goes by name alone, so an unread
    function that shares its name with a read attribute passes: it would
    have missed ``galerkin_residual``, which is also a ``StepDiagnostics``
    field, and it could not have caught the test-only ``cli.run``, whose
    name bench's ``subprocess.run`` and perfbench's ``workload.run`` read."""
    read = reads(PACKAGE + BENCH)
    assert [name for name in lowrankpde.__all__ + cli.__all__ if name not in read] == []


def exported_attributes():
    """``(class, attribute)`` for each dataclass field, property and
    exception attribute (what an instance made from a message holds) of
    each class in ``lowrankpde.__all__`` and ``lowrankpde.cli.__all__``."""
    classes = [obj for module, names in ((lowrankpde, lowrankpde.__all__), (cli, cli.__all__))
               for obj in (getattr(module, name) for name in names) if isinstance(obj, type)]
    for cls in classes:
        names = [f.name for f in dataclasses.fields(cls)] if dataclasses.is_dataclass(cls) else []
        names += [name for name, value in vars(cls).items()
                  if isinstance(value, (property, functools.cached_property))]
        if issubclass(cls, BaseException):
            names += list(vars(cls("message")))
        yield from ((cls.__name__, name) for name in names)


def test_every_exported_attribute_has_a_reader_outside_the_tests():
    """Each attribute of :func:`exported_attributes` is read as an attribute
    (``obj.name`` in Load context) by the package's modules, the bench
    scripts, perfbench or perfbench's tests, whose oracle reads
    ``GalerkinOperator.stiffness_1d``.  An attribute only the package tests
    read copies what its object already gives them, or is an oracle.  The
    check goes by name alone, so an unread attribute that shares its name
    with a read one passes: it could not have caught ``Trajectory.method``,
    ``EnergyReport.passed`` or ``RankDeficiencyError.rank``, whose names
    perfbench's ``self.method``, the CLI's ``PropertyReport.passed`` and
    ``LowRankState.rank`` read."""
    read = reads(PACKAGE + BENCH + [*(ROOT / "perfbench" / "tests").glob("*.py")],
                 {ast.Attribute: "attr"})
    assert [f"{cls}.{name}" for cls, name in exported_attributes() if name not in read] == []


#: The flags each bench script's ``--help`` lists.
BENCH_FLAGS = {"step_scan.py": {"-h", "--out", "--method", "--N", "--a12", "--against"},
               "suite_scan.py": {"-h", "--out", "--suite", "--N", "--against"},
               "artifact_diff.py": {"-h", "--against", "--config"}}


@pytest.mark.parametrize("script", ["step_scan.py", "suite_scan.py", "artifact_diff.py"])
def test_bench_script_starts(script):
    # the scans import the public API at start-up, before parsing arguments
    # (artifact_diff only in its children); each script's options are
    # exactly its flags, none added or lost
    done = subprocess.run([sys.executable, str(ROOT / "bench" / script), "--help"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert set(re.findall(r"^  (-\w|--[\w-]+)", done.stdout, re.MULTILINE)) == BENCH_FLAGS[script]


#: ``python -c ONE_PAIR BENCH_DIR SCAN ARGS...`` runs ``SCAN.main(ARGS)`` with
#: ``measuring.AB_PAIRS = 1``, set before the scan imports it.
ONE_PAIR = ("import importlib, sys; sys.path.insert(0, sys.argv[1]); import measuring; "
            "measuring.AB_PAIRS = 1; "
            "sys.exit(importlib.import_module(sys.argv[2]).main(sys.argv[3:]))")


def plain_and_ab_rows(tmp_path, script, grid):
    """The one row of ``bench/<script>.py`` restricted to ``grid``, as a plain
    scan and in the A/B mode against this very tree, in one process pair
    through ``ONE_PAIR`` (``test_ab_row_aggregates_alternating_pairs`` checks
    the 9-pair aggregation).  Checks what every A/B row must show against its
    own tree: both sides ran the same source, DIR's run has the plain row's
    keys, and the ratio is a finite positive median of its own range."""
    scans = {}
    for name, cmd in (("plain", [str(ROOT / "bench" / f"{script}.py")]),
                      ("ab", ["-c", ONE_PAIR, str(ROOT / "bench"), script,
                              "--against", str(ROOT)])):
        out = tmp_path / f"{name}.json"
        done = subprocess.run([sys.executable, *cmd, *grid, "--out", str(out)],
                              capture_output=True, text=True, timeout=600)
        assert done.returncode == 0, done.stderr
        scans[name] = json.loads(out.read_text())
    (plain,), (ab,) = scans["plain"]["rows"], scans["ab"]["rows"]
    settings = scans["ab"]["settings"]
    assert settings["pairs"] == ab["pairs"] == 1
    assert settings["src_sha256"] == settings["against_src_sha256"]
    assert len(settings["src_sha256"]) == 64
    assert set(ab) == set(plain) | {"against", "speedup", "speedup_range", "pairs"}
    assert set(ab["against"]) == set(plain)
    low, high = ab["speedup_range"]
    assert 0 < low <= ab["speedup"] <= high < float("inf")
    return plain, ab


def test_step_scan_against_its_own_tree(tmp_path):
    # the A/B mode on a one-row grid, run against this very tree: the plain
    # scan's row keys plus the A/B fields, and the same counts on all three
    # runs (a12 != 0, so the inner CG runs).  The ratio itself is CPU time on
    # whatever host runs the suite and is not checked beyond being a finite
    # positive median of its own range.
    plain, ab = plain_and_ab_rows(tmp_path, "step_scan",
                                  ["--method", "splitting", "--N", "128", "--a12", "0.25"])
    for key in ("method", "N", "r", "a12", "sweeps_per_step", "inner_iterations_per_half_sweep"):
        assert ab[key] == ab["against"][key] == plain[key], key
    assert plain["inner_iterations_per_half_sweep"] > 0


def test_suite_scan_against_its_own_tree(tmp_path):
    # the same for the suite scan's cheapest row: the keys, and the report,
    # which depends only on (N, r, trials, seed); the ratio is not checked
    plain, ab = plain_and_ab_rows(tmp_path, "suite_scan", ["--suite", "tangency", "--N", "16"])
    for key in ("suite", "N", "r", "trials", "violations", "worst_ratio"):
        assert ab[key] == ab["against"][key] == plain[key], key


#: ``python -c AB_ROW BENCH_DIR`` runs ``measuring.ab_row`` with ``_child_row``
#: stubbed: pair k returns ``OWN[k]`` and ``OTHER[k]`` ms, tagged with the
#: side and the pair, and the calls are printed with the row.
OWN = [5.0, 3.0, 9.0, 1.0, 7.0, 2.0, 8.0, 4.0, 6.0]
OTHER = [10.0, 3.3, 8.1, 4.0, 9.1, 1.0, 12.0, 4.8, 6.0]
AB_ROW = f"""import json, sys
sys.path.insert(0, sys.argv[1])
import measuring
times, calls = {{"own": {OWN}, "other": {OTHER}}}, []
def child_row(src, script, args):
    side = "own" if src == measuring.ROOT / "src" else "other"
    pair = sum(1 for s, _ in calls if s == side)
    calls.append((side, pair))
    return {{"side": side, "pair": pair, "args": args, "ms": times[side][pair]}}
measuring._child_row = child_row
row = measuring.ab_row("step_scan", ["als", 8], measuring.ROOT / "other", "ms")
print(json.dumps({{"calls": calls, "row": row}}))
"""


def test_ab_row_aggregates_alternating_pairs():
    # the A/B aggregation over AB_PAIRS = 9 pairs, with known times and no
    # process started per run: the order alternates from pair to pair, the
    # row is this tree's median run and ``against`` DIR's, and the speedup is
    # the median of the per-pair ratios DIR / this tree.  The module runs in
    # a child because importing it pins BLAS threads for the whole process.
    done = subprocess.run([sys.executable, "-c", AB_ROW, str(ROOT / "bench")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout)
    assert result["calls"] == [list(call) for k in range(9)
                               for call in [("own", k), ("other", k)][::(-1) ** k]]
    assert result["row"] == {"side": "own", "pair": 0, "args": ["als", 8], "ms": 5.0,
                             "against": {"side": "other", "pair": 8, "args": ["als", 8],
                                         "ms": 6.0},
                             "speedup": 1.2, "speedup_range": [0.5, 4.0], "pairs": 9}


def test_suite_scan_json_carries_todays_reports():
    # a suite's report depends only on (N, r, trials, seed), so the N = 16
    # rows of the committed BENCH_suite_scan.json must carry the violations
    # and worst ratios the suites report now; the scan's module runs in a
    # child because importing it pins BLAS threads for the whole process
    child = ("import json, sys; sys.path.insert(0, sys.argv[1]); import suite_scan as s; "
             "reports = {name: s.SUITES[name](16) for name in ('curvature', 'projection', "
             "'tangency')}; print(json.dumps({'settings': [s.RANK, s.TRIALS, s.SEED], "
             "'reports': {name: [rep.violations, {k: float(v) for k, v in "
             "rep.worst_ratio.items()}] for name, rep in reports.items()}}))")
    done = subprocess.run([sys.executable, "-c", child, str(ROOT / "bench")],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    now = json.loads(done.stdout)
    bench = json.loads((ROOT / "BENCH_suite_scan.json").read_text())
    settings = bench["settings"]
    assert [settings["rank"], settings["trials"], settings["seed"]] == now["settings"]
    rows = {row["suite"]: [row["violations"], row["worst_ratio"]]
            for row in bench["rows"] if row["N"] == 16 and "violations" in row}
    assert rows == now["reports"]


def test_artifact_diff_against_its_own_tree():
    # the same source on both sides: each artifact of the cheapest config
    # is byte-identical and the tool exits 0
    done = subprocess.run([sys.executable, str(ROOT / "bench" / "artifact_diff.py"),
                           "--against", str(ROOT), "--config", "heat-diagonal"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "heat-diagonal: exit status 0"
    assert [line.split() for line in lines[1:-1]] == [
        [name, "identical"] for name in ("diagnostics.csv", "report.csv", "run.log",
                                         "trajectory.csv")]
    assert lines[-1] == "1 of 1 configs byte-identical"


def test_artifact_diff_raises_on_a_rejected_config(tmp_path):
    # a config the CLI rejects (exit 2) is no result to compare: run_cli
    # raises, with the CLI's message; the module runs in a child because
    # run_cli's import of measuring pins BLAS threads for the whole process
    config = tmp_path / "bad.cfg"
    config.write_text("experiment = heat-diagonal\nN = 0\n")
    child = ("import sys; from pathlib import Path; sys.path.insert(0, sys.argv[1]); "
             "import artifact_diff; print(artifact_diff.run_cli(*map(Path, sys.argv[2:])))")
    done = subprocess.run([sys.executable, "-c", child, str(ROOT / "bench"), str(ROOT / "src"),
                           str(config), str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert "RuntimeError" in done.stderr and "config error: N must be >= 1" in done.stderr
    assert not (tmp_path / "out").exists()


def test_artifact_diff_variants_are_serialized_configs():
    # each variant is a RunConfig written by serialize_config, so its text
    # parses back to itself; the module runs in a child because
    # variant_text's import of measuring pins BLAS threads for the process
    child = ("import json, sys; sys.path.insert(0, sys.argv[1]); import artifact_diff as d; "
             "print(json.dumps([d.CONFIGS, {n: d.variant_text(n) for n in d.VARIANTS}]))")
    done = subprocess.run([sys.executable, "-c", child, str(ROOT / "bench")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    configs, texts = json.loads(done.stdout)
    assert configs == ["anisotropic", "convergence-rank", "energy-audit", "geometry-suites",
                       "anisotropic-splitting", "anisotropic-reference",
                       "energy-audit-homogeneous", "energy-audit-splitting", "heat-diagonal",
                       "convergence-h", "equivalence", "heat-diagonal-halted",
                       "heat-diagonal-reference", "convergence-h-halted",
                       "convergence-h-closed-form"]
    assert list(texts) == configs[4:]
    for name, text in texts.items():
        assert serialize_config(parse_config(text)) == text, name


def test_artifact_diff_reports_each_differing_column(tmp_path):
    spec = importlib.util.spec_from_file_location("artifact_diff",
                                                  ROOT / "bench" / "artifact_diff.py")
    diff = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(diff)
    ours, theirs = tmp_path / "ours.csv", tmp_path / "theirs.csv"
    ours.write_text("step,x,y,flag\n1,1.0,nan,true\n2,4.0,0,true\n")
    theirs.write_text("step,x,y,flag\n1,1.0,nan,true\n2,5.0,-0,false\n")
    assert diff.compare_file(ours, ours) == "identical"
    assert diff.compare_file(ours, theirs) == (
        "differs: x: max abs 1 rel 0.2; y: 1 text cells; flag: 1 text cells")
    theirs.write_text("step,x,y,flag\n1,1.0,2.0,true\n")
    assert diff.compare_file(ours, theirs) == (
        "differs: rows 2 vs 1; y: max abs inf rel inf")
    assert diff.compare_file(ours, tmp_path / "missing.csv") == "only in this tree"
