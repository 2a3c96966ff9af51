"""Repository tooling: the tracer's layer targets must exist in the package,
the benchmark's calls into the package must bind to its signatures, the
committed benchmark records must match the benchmark's declaration, and
every public definition, constant and field in the package must have a
reader outside the tests, and every defaulted parameter a caller there that
sets it, and no module of the package may read the environment.

``perfbench/run.py --trace 1`` patches these functions by name; a renamed
or deleted target would otherwise only show as a missing layer count.
"""

import ast
import glob
import importlib
import importlib.util
import inspect
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(__file__))
TRACER_PATH = os.path.join(ROOT, "perfbench", "tracer.py")
# the code that uses the package: a definition only tests read is dead code
READER_DIRS = ("src", "demos", "perfbench", "tools")
# fields with no reader yet, kept on purpose: ROADMAP item 2 turns them
# into evidence columns
UNREAD_FIELDS = {"skipped_unsolvable", "covariance"}
# defaulted parameters no caller outside tests sets, kept on purpose: the
# mesh-convergence tests refine the radial mesh step
UNSET_OPTIONS = {"radial.py: RadialSolver(h)"}


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_targets_resolve():
    tracer = _load_tracer()
    targets = [t for group in tracer.LAYERS.values() for t in group]
    targets += list(tracer.LOCAL_LAYERS.values())
    assert ("rydtherm.radial", "RadialSolver.j0_average") in targets
    assert ("rydtherm.radial", "legendre_moment") in targets
    for module_name, attr in targets:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(obj, part), f"{module_name}.{attr}"
            obj = getattr(obj, part)
        assert callable(obj), f"{module_name}.{attr}"


@pytest.mark.parametrize(
    "demo", sorted(os.path.basename(p) for p in glob.glob(os.path.join(ROOT, "demos", "*.py")))
)
def test_demo_runs(tmp_path, demo):
    # the demos are readers the guards below count, so each must run: a
    # fresh interpreter, overflow and invalid-value warnings as errors
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", os.path.join(ROOT, "demos", demo)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr[-2000:]


def _perfbench_calls():
    """(file:line, attribute path, positional count, keyword names) of every
    call ``perfbench/*.py`` makes through ``self.R.`` or ``rydtherm.``, the
    two names its workloads give the package."""
    for path, tree in _trees(["perfbench"]):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            parts, func = [], node.func
            while isinstance(func, ast.Attribute):
                parts.append(func.attr)
                func = func.value
            if not isinstance(func, ast.Name):
                continue
            if func.id == "self" and parts[-1:] == ["R"]:
                parts.pop()
            elif func.id != "rydtherm":
                continue
            where = f"{os.path.basename(path)}:{node.lineno}"
            assert not any(isinstance(a, ast.Starred) for a in node.args), where
            assert all(kw.arg is not None for kw in node.keywords), where
            yield (where, parts[::-1], len(node.args),
                   [kw.arg for kw in node.keywords])


def test_perfbench_calls_bind_to_the_package():
    # the benchmark runs unchanged against every commit: a renamed or
    # removed parameter it passes would only show as failed items
    import rydtherm
    import rydtherm.cli  # noqa: F401  (the magic workload calls it)

    calls = list(_perfbench_calls())
    called = {".".join(parts) for _, parts, _, _ in calls}
    assert {"bbr_shift_sum", "transition_bbr_shift", "solve_magic_wavelength",
            "cli.main"} <= called
    for where, parts, n_args, keywords in calls:
        obj = rydtherm
        for part in parts:
            obj = getattr(obj, part)
        try:
            inspect.signature(obj).bind(*range(n_args), **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"{where}: {'.'.join(parts)}: {exc}") from None


def test_bench_records_match_benchmark():
    # every committed BENCH_<NN>.json (written by tools/bench_record.py)
    # names exactly the declared workloads and metrics at the declared
    # run length; from FIRST_E2E_RECORD on it also holds the CLI and
    # tier-1 wall times
    import json

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    workloads = {w["name"] for w in bench["workloads"]}
    end_to_end = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    per_layer = {m["name"] for m in bench["per_layer"]}
    paths = sorted(glob.glob(os.path.join(ROOT, "BENCH_*.json")))
    assert paths
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            record = json.load(fh)
        assert record["seconds"] == bench["run_seconds"], path
        assert set(record["workloads"]) == workloads, path
        for name, entry in record["workloads"].items():
            assert set(entry["end_to_end"]) == set(end_to_end), (path, name)
            for metric, spread in entry["end_to_end"].items():
                assert spread["q1"] <= spread["median"] <= spread["q3"], (path, name)
                # a record from a host too noisy to tell is not kept
                bound = end_to_end[metric] * spread["median"]
                assert spread["q3"] - spread["q1"] <= bound, (path, name, metric)
            assert set(entry["per_layer_seed1"]) == per_layer, (path, name)
        if int(os.path.basename(path)[len("BENCH_"):-len(".json")]) >= FIRST_E2E_RECORD:
            _check_end_to_end_wall_times(path, record)


# records from this number on also hold the fresh-process CLI wall times
# and the tier-1 wall time
FIRST_E2E_RECORD = 20


def _check_end_to_end_wall_times(path, record):
    import math

    cli = record["cli_wall_s"]
    assert "import rydtherm" in cli and len(cli) > 1, path
    for name, timing in cli.items():
        runs = timing["runs_s"]
        assert len(runs) == 3 and all(0.0 < t < math.inf for t in runs), (path, name)
        assert timing["min_s"] == min(runs), (path, name)
        assert timing["exit_codes"] == [0, 0, 0], (path, name)
    assert 0.0 < record["tier1"]["wall_s"] < math.inf, path
    assert " passed" in record["tier1"]["summary"], path


def _trees(dirs):
    """(path, AST) of every Python file under ``dirs``."""
    for top in dirs:
        pattern = os.path.join(ROOT, top, "**", "*.py")
        for path in sorted(glob.glob(pattern, recursive=True)):
            with open(path, encoding="utf-8") as fh:
                yield path, ast.parse(fh.read())


def _public_classes():
    """(module file name, public class node) of ``src/rydtherm/*.py``."""
    for path, tree in _trees([os.path.join("src", "rydtherm")]):
        for node in tree.body:
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                yield os.path.basename(path), node


def _public_definitions():
    """Public module-level functions, classes and UPPER_CASE constants of
    ``src/rydtherm/*.py``, and the public methods of those classes, as
    "module: name" -> name."""
    defs = {}
    for path, tree in _trees([os.path.join("src", "rydtherm")]):
        module = os.path.basename(path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                defs[f"{module}: {node.name}"] = node.name
            targets = (
                node.targets if isinstance(node, ast.Assign)
                else [node.target] if isinstance(node, ast.AnnAssign)
                else []
            )
            for target in targets:
                name = getattr(target, "id", "")
                if name.isupper() and not name.startswith("_"):
                    defs[f"{module}: {name}"] = name
    for module, node in _public_classes():
        defs[f"{module}: {node.name}"] = node.name
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                defs[f"{module}: {node.name}.{sub.name}"] = sub.name
    return defs


def _public_fields():
    """The fields of the public classes of ``src/rydtherm/*.py`` (annotated
    class attributes: dataclass and NamedTuple fields) and the attributes
    they set on ``self`` in ``__init__``, as "module: Class.field" -> field."""
    fields = {}
    for module, node in _public_classes():
        for sub in node.body:
            if isinstance(sub, ast.AnnAssign) and isinstance(sub.target, ast.Name):
                fields[f"{module}: {node.name}.{sub.target.id}"] = sub.target.id
            elif isinstance(sub, ast.FunctionDef) and sub.name == "__init__":
                for target in ast.walk(sub):
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.ctx, ast.Store)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        fields[f"{module}: {node.name}.{target.attr}"] = target.attr
    return fields


def _defaulted_parameters():
    """Each defaulted parameter of the public functions and methods of
    ``src/rydtherm/*.py`` (a class's ``__init__`` is called by the class's
    name), as "module: function(parameter)" -> (function, parameter,
    position in a call, or None for a keyword-only one)."""
    functions = []
    for path, tree in _trees([os.path.join("src", "rydtherm")]):
        module = os.path.basename(path)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                functions.append((module, node.name, node, 0))
    for module, node in _public_classes():
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef) and (
                sub.name == "__init__" or not sub.name.startswith("_")
            ):
                name = node.name if sub.name == "__init__" else sub.name
                functions.append((module, name, sub, 1))  # a call passes no self
    params = {}
    for module, name, node, skip in functions:
        args = node.args
        positional = (args.posonlyargs + args.args)[skip:]
        first_defaulted = len(positional) - len(args.defaults)
        defaulted = [(a.arg, i) for i, a in enumerate(positional) if i >= first_defaulted]
        defaulted += [
            (a.arg, None) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None
        ]
        for param, position in defaulted:
            params[f"{module}: {name}({param})"] = (name, param, position)
    return params


def _arguments_set():
    """The keyword names of every call outside ``tests/``, and (function
    name, position) of each positional argument of a call there before
    any starred one."""
    keywords, positions = set(), set()
    for _, tree in _trees(READER_DIRS):
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            keywords.update(kw.arg for kw in node.keywords)
            name = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            for i, arg in enumerate(node.args):
                if isinstance(arg, ast.Starred):
                    break
                positions.add((name, i))
    return keywords, positions


def _identifiers_read():
    """Every Name and Attribute identifier read (``Load`` context) in the
    code outside ``tests/``.  Imports, assignment targets, strings and
    docstrings are not reads."""
    names = set()
    for _, tree in _trees(READER_DIRS):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
    return names


def _attributes_loaded():
    """Every attribute read (``Attribute`` in ``Load`` context) in the code
    outside ``tests/``; a keyword argument or an assignment is no read."""
    return {
        node.attr
        for _, tree in _trees(READER_DIRS)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }


def test_every_public_definition_has_a_reader_outside_tests():
    # code only tests exercise is deleted, not kept for them
    read = _identifiers_read()
    unread = sorted(key for key, name in _public_definitions().items() if name not in read)
    assert not unread, f"read only by tests (or by nothing): {unread}"


def test_every_public_field_has_a_reader_outside_tests():
    # a field that nothing reads stores a datum twice or for no one
    loaded = _attributes_loaded()
    fields = _public_fields()
    unread = sorted(
        key for key, name in fields.items()
        if name not in loaded and name not in UNREAD_FIELDS
    )
    assert not unread, f"fields read only by tests (or by nothing): {unread}"
    # the exemption cannot go stale: each exempt field exists and is unread
    assert UNREAD_FIELDS <= set(fields.values())
    assert not UNREAD_FIELDS & loaded


def test_every_option_is_set_outside_tests():
    # a default no caller outside tests overrides is a constant, not an option
    keywords, positions = _arguments_set()
    unset = {
        key for key, (name, param, position) in _defaulted_parameters().items()
        if param not in keywords and (name, position) not in positions
    }
    assert not unset - UNSET_OPTIONS, (
        f"defaulted parameters set only by tests (or by nothing): {sorted(unset - UNSET_OPTIONS)}"
    )
    # the exemption cannot go stale: each exempt parameter exists and is unset
    assert UNSET_OPTIONS <= unset


def test_no_module_reads_the_environment():
    # an environment variable is an option that the guards above cannot
    # see: a setting the package reads comes through a parameter or the CLI
    env_reads = {"environ", "environb", "getenv", "getenvb"}
    found = sorted(
        f"{os.path.basename(path)}:{node.lineno}"
        for path, tree in _trees([os.path.join("src", "rydtherm")])
        for node in ast.walk(tree)
        if (isinstance(node, ast.Attribute) and node.attr in env_reads)
        or (isinstance(node, ast.Name) and node.id in env_reads)
        or (isinstance(node, ast.ImportFrom)
            and any(alias.name in env_reads for alias in node.names))
    )
    assert not found, f"environment reads in src/rydtherm: {found}"
