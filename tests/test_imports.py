"""What importing the package and running the command line load: the
package imports no module until a public name is read, each subcommand
imports only the modules it runs, and gelfand.rs names the insertion
function in every import order.  Import sets are read in fresh
interpreters, since this process has long loaded every module."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gelfand

SRC = Path(__file__).resolve().parent.parent / "src"

# runs the command line in-process, then reports the exit status and the
# package modules loaded as the last line of stderr
CLI_PROBE = """
import json, sys
from gelfand.cli import main
code = main(sys.argv[1:])
loaded = sorted(name for name in sys.modules if name.split(".")[0] == "gelfand")
print(json.dumps([code, loaded]), file=sys.stderr)
"""


def python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, timeout=120
    )


def loaded_by(argv):
    result = python("-c", CLI_PROBE, *argv)
    code, loaded = json.loads(result.stderr.splitlines()[-1])
    return code, set(loaded)


def test_import_gelfand_loads_no_module():
    result = python(
        "-c",
        "import sys, gelfand; "
        "print(sorted(m for m in sys.modules if m.startswith('gelfand.')))",
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv,exit_code",
    [
        (["--help"], 0),
        (["model", "decompose", "--help"], 0),
        (["chartable", "--r", "2"], 2),
    ],
    ids=["help", "model-help", "usage-error"],
)
def test_help_and_usage_errors_load_only_the_parser(argv, exit_code):
    code, loaded = loaded_by(argv)
    assert code == exit_code
    assert loaded == {"gelfand", "gelfand.cli", "gelfand.errors"}


def test_chartable_does_not_load_the_model():
    code, loaded = loaded_by(
        ["chartable", "--json", "--r", "2", "--p", "1", "--q", "1", "--n", "3"]
    )
    assert code == 0
    assert "gelfand.characters" in loaded
    assert "gelfand.model" not in loaded


def test_defining_modules_resolve_as_package_attributes():
    result = python(
        "-c",
        "import gelfand; "
        "assert gelfand.model.ModelBasis is gelfand.ModelBasis; "
        "assert 'shapes' in dir(gelfand); "
        "assert callable(gelfand.rs)",
    )
    assert result.returncode == 0, result.stderr


# what the model commands load, as before the command line loaded lazily
HEAVY = {"gelfand.cyclotomic", "gelfand.classes", "gelfand.characters", "gelfand.model"}


def test_model_commands_load_the_model():
    code, loaded = loaded_by(
        ["model", "gelfand-check", "--r", "2", "--p", "2", "--q", "1", "--n", "3"]
    )
    assert code == 0
    assert HEAVY <= loaded


@pytest.mark.parametrize(
    "statements",
    [
        "import gelfand.rs\nfrom gelfand import rs",
        "from gelfand import rs\nimport gelfand.rs",
        "import gelfand.rs as rs",
    ],
    ids=["module-first", "name-first", "import-as"],
)
def test_rs_names_the_insertion_function_in_every_import_order(statements):
    check = (
        statements
        + "\nimport sys, types, gelfand"
        + "\nmodule = sys.modules['gelfand.rs']"
        + "\nassert isinstance(module, types.ModuleType), module"
        + "\nassert rs is gelfand.rs is module.rs, (rs, gelfand.rs)"
        + "\nassert callable(rs) and rs.__module__ == 'gelfand.rs', rs"
    )
    result = python("-c", check)
    assert result.returncode == 0, result.stderr


PUBLIC = [name for name in gelfand.__all__ if name != "__version__"]


@pytest.mark.parametrize("name", PUBLIC)
def test_public_name_is_its_defining_modules_object(name):
    value = getattr(gelfand, name)
    assert getattr(importlib.import_module(value.__module__), name) is value
    assert name in dir(gelfand)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from gelfand import *", namespace)
    assert set(gelfand.__all__) <= set(namespace)
    assert all(namespace[name] is getattr(gelfand, name) for name in gelfand.__all__)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError):
        gelfand.no_such_name
    assert not hasattr(gelfand, "no_such_name")
