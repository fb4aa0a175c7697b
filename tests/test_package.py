import ast
import inspect
import os
import random
import re
import subprocess
import sys
from importlib import import_module
from pathlib import Path

import pytest

import prdom
import prdom.family
import prdom.graphs
from prdom import (
    OptimaReport,
    StabilityReport,
    make_path,
    optima_report,
    optimal_assignment,
    stability_report,
)

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_is_the_object_its_module_defines():
    for name in prdom.__all__:
        home = import_module(f"prdom.{prdom._HOME[name]}")
        assert getattr(prdom, name) is getattr(home, name), name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from prdom import *", namespace)
    assert all(namespace[name] is getattr(prdom, name) for name in prdom.__all__)


def test_dir_lists_every_export():
    assert set(prdom.__all__) <= set(dir(prdom))
    assert "__version__" in dir(prdom)


def test_unknown_attributes_are_named():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        prdom.no_such_name
    with pytest.raises(ImportError, match="no_such_name"):
        from prdom import no_such_name  # noqa: F401


def test_invalid_step_error_lives_in_graphs():
    assert prdom.family.InvalidStepError is prdom.graphs.InvalidStepError
    assert prdom.InvalidStepError.__module__ == "prdom.graphs"


def test_an_export_loads_only_its_own_modules():
    script = (
        "import sys\n"
        "import prdom\n"
        "print(sorted(m for m in sys.modules if m.startswith('prdom')))\n"
        "prdom.prd_number\n"
        "print(sorted(m for m in sys.modules if m.startswith('prdom')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "['prdom']",
        "['prdom', 'prdom.graphs', 'prdom.solver']",
    ]


def test_records_are_read_only_named_tuples():
    t = make_path(6)
    records = [stability_report(t), optima_report(t)]
    assert [type(r) for r in records] == [StabilityReport, OptimaReport]
    for record in records:
        assert isinstance(record, tuple)
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
    # an optimum is its labels and a certificate its anchors: plain tuples
    assert type(optimal_assignment(t)) is tuple
    assert type(prdom.family.random_certificate(2, random.Random(0))) is tuple
    assert prdom.Certificate == tuple[int, ...]
    assert "Step" not in prdom.__all__


def test_the_cli_and_the_sweeps_leave_dataclasses_unloaded():
    script = "import sys\nimport prdom.cli, prdom.sweeps\nprint('dataclasses' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_every_traced_name_is_a_function_its_module_defines():
    # prdbench/run.py wraps each LAYER_FUNCTIONS name, "module.name" or
    # "module.Class.method" ("init" for __init__), and its traced runs stop
    # with a KeyError on a name that prdom no longer defines
    source = (ROOT / "prdbench" / "run.py").read_text()
    table = next(
        node.value
        for node in ast.parse(source).body
        if isinstance(node, ast.Assign)
        and any(getattr(target, "id", None) == "LAYER_FUNCTIONS" for target in node.targets)
    )
    names = [ast.literal_eval(key) for key in table.keys]
    assert names
    for name in names:
        module_name, attr, *method = name.split(".")
        module = import_module(f"prdom.{module_name}")
        obj = vars(module).get(attr)
        assert getattr(obj, "__module__", None) == module.__name__, name
        for m in method:
            obj = vars(obj).get("__init__" if m == "init" else m)
        assert inspect.isfunction(obj), name
        assert obj.__code__.co_filename == module.__file__, name


def _readme_api_names():
    """(module, name) for every backticked name in README's "| `prdom.X` |"
    rows, with "make_path/star" read as make_path and make_star."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    for module, cells in re.findall(r"^\| `prdom\.(\w+)` \|(.*)\|$", readme, re.M):
        for token in re.findall(r"`([\w./]+)`", cells):
            first, *rest = token.split("/")
            prefix = first[: first.index("_") + 1] if rest else ""
            for name in [first] + [prefix + part for part in rest]:
                yield module, name


def test_readme_api_table_names_only_what_exists():
    names = list(_readme_api_names())
    assert ("graphs", "make_double_star") in names and ("solver", "is_valid_prdf") in names
    for module_name, name in names:
        obj = import_module(f"prdom.{module_name}")
        for attr in name.split("."):
            assert hasattr(obj, attr), f"README names prdom.{module_name}.{name}"
            obj = getattr(obj, attr)
