"""Import hygiene: the exact layers and the CLI load only the standard
library, the numpy layers load on demand, and nothing loads scipy."""

import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import eischow
from eischow import gamma0

SRC = Path(eischow.__file__).resolve().parent.parent


def _loaded_after(script: str) -> set:
    """The top-level module names a fresh interpreter holds after ``script``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    code = script + "\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return {name.split(".")[0] for name in json.loads(proc.stdout.splitlines()[-1])}


def test_exact_subcommands_load_only_the_stdlib():
    loaded = _loaded_after(
        "import contextlib, io\n"
        "import eischow.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for argv in (['invariants', '37'], ['gram', '35'], ['omega-eis', '37'],\n"
        "                 ['hecke', '37', '--l', '2'], ['hecke', '35', '--d', '5'],\n"
        "                 ['heegner', '37', '--disc', '-4'], ['gram', '12', '--format', 'json']):\n"
        "        cli.run(argv)\n"
        # the eta product of the 11a form, at the benchmark's size, stays integer-only too
        "from eischow.qexp import EtaQuotient, eta_expand\n"
        "assert eta_expand(EtaQuotient(factors=((1, 2), (11, 2))), 2400).coeffs[:4] == (1, -2, -1, 2)\n"
    )
    assert "numpy" not in loaded
    assert "scipy" not in loaded


def test_numeric_subcommands_never_load_scipy(eigenform_37_path):
    loaded = _loaded_after(
        "import contextlib, io\n"
        "import eischow.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert cli.run(['omega-f', '--eigenform', {str(eigenform_37_path)!r}]) == 0\n"
        "    assert cli.run(['verify-analysis']) == 0\n"
    )
    assert "numpy" in loaded
    assert "scipy" not in loaded


def test_every_exported_name_resolves():
    for name in eischow.__all__:
        assert getattr(eischow, name) is not None, name
    assert set(eischow.__all__) <= set(dir(eischow))
    # every layer's __all__ too, as a tracer that wraps each layer's exports reads it
    for info in pkgutil.iter_modules(eischow.__path__):
        module = importlib.import_module(f"eischow.{info.name}")
        for name in getattr(module, "__all__", ()):  # errors exports by class alone
            assert getattr(module, name) is not None, f"{info.name}.{name}"
    # the grid constructor is wrapped through the class dict, so it stays a staticmethod
    disc = importlib.import_module("eischow.disc")
    assert isinstance(disc.DiscGrid.__dict__["gauss"], staticmethod)
    namespace = {}
    exec("from eischow import *", namespace)
    assert namespace["omega_f_sq"] is importlib.import_module("eischow.lseries").omega_f_sq
    assert namespace["verification_report"] is importlib.import_module("eischow.disc").verification_report
    with pytest.raises(AttributeError):
        eischow.no_such_name


def test_chi_has_one_home():
    assert eischow.chi is gamma0.chi is importlib.import_module("eischow.lseries").chi


def test_count_calls_reaches_lazily_loaded_modules(count_calls):
    original = gamma0.is_prime
    count_calls(original)
    for info in pkgutil.iter_modules(eischow.__path__):
        module = importlib.import_module(f"eischow.{info.name}")
        assert all(value is not original for value in vars(module).values()), info.name
    assert importlib.import_module("eischow.lseries").is_prime is not original
