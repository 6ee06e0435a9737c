"""The package surface and the cold path: ``import involutive`` loads no
layer, its names resolve lazily to the defining modules, and each CLI command
loads only the layers it calls."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import involutive

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def newly_loaded(code: str) -> set[str]:
    """The modules a fresh interpreter loads while running ``code``."""
    script = (
        "import json, sys\n"
        "before = set(sys.modules)\n"
        f"{code}\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


def cli_call(command: str, source: str) -> str:
    return (
        "from involutive import cli\n"
        f"code = cli.main([{command!r}, '--input', {str(CORPUS / source)!r}])\n"
        "if code != 0:\n"
        "    raise SystemExit(f'exit {code}')\n"
    )


def test_import_loads_no_layer():
    loaded = newly_loaded("import involutive")
    assert "involutive" in loaded
    assert [m for m in loaded if m.startswith("involutive.")] == []


def test_mult_vars_loads_only_the_division_layer():
    loaded = newly_loaded(cli_call("mult-vars", "termset_mixed_three_vars.json"))
    assert "involutive.division" in loaded
    for module in ("involutive.marked", "involutive.scheme", "involutive._linalg", "fractions"):
        assert module not in loaded


def test_pommaret_leaves_the_scheme_unloaded():
    loaded = newly_loaded(cli_call("pommaret", "ideal_quasi_stable.json"))
    assert "involutive.ideals" in loaded
    assert "involutive.scheme" not in loaded


def test_importing_a_layer_binds_its_names():
    # bound before anything can patch them, so the benchmark's tracer finds
    # and restores the package's bindings with the layer's own
    newly_loaded(
        "import involutive\n"
        "unbound = 'star_set' not in vars(involutive)\n"
        "from involutive import ideals\n"
        "bound = vars(involutive).get('star_set') is ideals.star_set\n"
        "if not (unbound and bound and 'reduce' not in vars(involutive)):\n"
        "    raise SystemExit('star_set is not bound with its layer alone')\n"
    )


def test_every_exported_name_is_its_defining_modules_object():
    assert len(set(involutive.__all__)) == len(involutive.__all__)
    for name in involutive.__all__:
        home = importlib.import_module(f"involutive.{involutive._HOME[name]}")
        value = getattr(involutive, name)
        assert value is getattr(home, name), name
        if hasattr(value, "__module__"):
            assert value.__module__ == home.__name__, name


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from involutive import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(involutive.__all__)
    assert set(involutive.__all__) <= set(dir(involutive))


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        involutive.no_such_name
    with pytest.raises(ImportError):
        exec("from involutive import no_such_name", {})
