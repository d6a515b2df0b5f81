"""The package exports its names lazily. Each command loads only the engine
modules it uses, never `dataclasses` or `inspect`, and `fractions` only
where it builds a Fraction; `catalan`, `skein`, `incidence`, `classify` and
`verify` load no `typing`."""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import iterforge

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_exported_name_is_its_home_modules_object():
    assert len(iterforge.__all__) == len(set(iterforge.__all__)) == 69
    for name in iterforge.__all__:
        home = importlib.import_module(f"iterforge.{iterforge._HOME[name]}")
        assert getattr(iterforge, name) is getattr(home, name), name


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        iterforge.no_such_name
    assert not hasattr(iterforge, "Tableau")


def test_star_import_and_dir_list_every_export():
    namespace = {}
    exec("from iterforge import *", namespace)
    assert {name for name in namespace if name != "__builtins__"} == set(iterforge.__all__)
    assert namespace["close"] is iterforge.semantics.close
    assert set(iterforge.__all__) <= set(dir(iterforge))
    assert "__version__" in dir(iterforge)


COLD = {"iterforge", "iterforge.cli", "iterforge.errors", "iterforge.render", "iterforge.terms"}
WITH_TABLEAUX = COLD | {"iterforge.tableaux"}  # every command that builds a universe
WITH_POLYNOMIALS = COLD | {"iterforge.polynomials"}
WITH_INCIDENCE = WITH_TABLEAUX | {"iterforge.incidence"}
WITH_SEMANTICS = WITH_INCIDENCE | {"iterforge.semantics"}
EVERY_MODULE = WITH_SEMANTICS | WITH_POLYNOMIALS | {"iterforge.verify"}

COMMANDS = [
    (["enumerate", "--order", "3"], WITH_TABLEAUX),
    (["tableau", "--order", "4", "--mode", "B", "--format", "json"], WITH_TABLEAUX),
    (["incidence", "--order", "4", "--mode", "AB"], WITH_INCIDENCE),
    (["closure", "SPEC", "--order", "5", "--unicity"], WITH_SEMANTICS),
    (["classify", "3", "1", "5", "--order", "6"], WITH_SEMANTICS),
    (["skein", "VVxxx"], WITH_POLYNOMIALS),
    (["skein", "4", "--format", "json"], WITH_POLYNOMIALS | WITH_TABLEAUX),
    (["catalan", "classic", "8"], WITH_POLYNOMIALS),
    (["catalan", "mixed", "2,3", "8", "--format", "csv"], WITH_POLYNOMIALS),
    (["catalan", "convolution", "2", "10"], WITH_POLYNOMIALS),
    (["verify", "--order", "4"], EVERY_MODULE),
]

# the commands that build a Fraction, as argv prefixes
FRACTION_COMMANDS = (["verify"], ["catalan", "convolution"])

# run one command through cli.main in this interpreter, then list on stderr
# the modules it loaded beyond those a bare `python -c pass` has, site hooks
# included, so that a module a hook preloads decides nothing
PROBE = """
import sys
bare = set(sys.modules)
import json
from iterforge.cli import main
code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - bare)]), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, modules", COMMANDS, ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_a_command_loads_only_the_modules_it_uses(tmp_path, argv, modules):
    spec = tmp_path / "spec.txt"
    spec.write_text("order 3\n1 5\n")
    argv = [str(spec) if arg == "SPEC" else arg for arg in argv]
    env = dict(os.environ, PYTHONPATH=str(SRC), ITERFORGE_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    code, loaded = json.loads(proc.stderr.strip().splitlines()[-1])
    assert code == 0
    assert {m for m in loaded if m.split(".")[0] == "iterforge"} == modules
    assert not {"dataclasses", "inspect"} & set(loaded)
    assert ("fractions" in loaded) == any(argv[: len(cmd)] == cmd for cmd in FRACTION_COMMANDS)


# as PROBE, but printing with repr, so that the probe loads no json of its own
REPR_PROBE = """
import sys
bare = set(sys.modules)
from iterforge.cli import main
code = main(sys.argv[1:])
print(repr([code, sorted(set(sys.modules) - bare)]), file=sys.stderr)
"""

PLAIN_COMMANDS = [
    [*command, "--format", fmt]
    for command in (["enumerate", "--order", "4"], ["tableau", "--order", "4"], ["incidence", "--order", "4"])
    for fmt in ("text", "csv", "json")
]


@pytest.mark.parametrize("argv", PLAIN_COMMANDS, ids=[" ".join(argv) for argv in PLAIN_COMMANDS])
def test_only_json_output_loads_json(tmp_path, argv):
    env = dict(os.environ, PYTHONPATH=str(SRC), ITERFORGE_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-c", REPR_PROBE, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    code, loaded = ast.literal_eval(proc.stderr.strip().splitlines()[-1])
    assert code == 0
    json_modules = [m for m in loaded if m.split(".")[0] in ("json", "_json")]
    assert bool(json_modules) == (argv[-1] == "json"), json_modules


@pytest.mark.parametrize(
    "argv",
    [
        ["catalan", "convolution", "2", "10"],
        ["skein", "VVxxVxx"],
        ["incidence", "--order", "4"],
        ["classify", "3", "1", "5", "--order", "6"],
        ["verify", "--order", "4"],
    ],
    ids=" ".join,
)
def test_polynomials_commands_load_no_typing_without_site(tmp_path, argv):
    # without site hooks nothing preloads typing; a collections.namedtuple record loads nothing
    env = dict(os.environ, PYTHONPATH=str(SRC), ITERFORGE_CACHE=str(tmp_path / "cache"))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", REPR_PROBE, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    code, loaded = ast.literal_eval(proc.stderr.strip().splitlines()[-1])
    assert code == 0
    engine = {"incidence": "incidence", "classify": "semantics", "verify": "verify"}.get(argv[0], "polynomials")
    assert f"iterforge.{engine}" in loaded and "typing" not in loaded


def test_importing_the_cli_loads_no_engine_beyond_tableaux():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = "import json, sys, iterforge.cli; print(json.dumps([m for m in sys.modules if m.startswith('iterforge')]))"
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert set(json.loads(out)) == COLD


def test_importing_the_package_loads_no_engine_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import json, sys, iterforge\n"
        "before = [m for m in sys.modules if m.startswith('iterforge')]\n"
        "assert iterforge.semantics.close is iterforge.close\n"
        "print(json.dumps(before))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True).stdout
    assert json.loads(out) == ["iterforge"]
