"""`import graphstate` loads only what the commands run.

Each CLI command is its own process, so every module the package imports
is paid on every command.  The package never loads scipy, not even for
the quadrature behind `DensityFn.integrate`, and `concurrent.futures`
serves only `estimate` with more than one thread.  Two modules stay eager on
purpose: `numpy.random`, which numpy otherwise loads on first use (inside
the first sampled trial), and `locale`, which argparse's gettext imports
on every parse.  And the CLI builds its argument parsers when it runs, one
per command named, never at import.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ONE_LOOP = str(ROOT / "tests" / "data" / "one_loop.json")

SCRIPT = """
import json, sys

def loaded(*names):
    return {name: name in sys.modules for name in names}

import graphstate
out = {"import": loaded("scipy", "concurrent.futures", "numpy.random")}
from graphstate import cli
out["cli"] = loaded("scipy", "locale")
one_loop = sys.argv[1]
commands = [["analyze", one_loop, "--pmax", "3"],
            ["exact", one_loop, "--N", "2", "--pmax", "2"],
            ["verify", one_loop, "--N", "4", "--trials", "4", "--pmax", "2"],
            ["simulate", one_loop, "--N", "4", "--trials", "4", "--pmax", "2"],
            ["dist", "mp", "--c", "1"]]
out["codes"] = [cli.run(argv)[0] for argv in commands]
out["commands"] = loaded("scipy", "concurrent.futures")
out["mass"] = graphstate.mp_density(1).total_mass()
out["quadrature"] = loaded("scipy")
print(json.dumps(out))
"""


def _fresh_process(script):
    """The JSON a script prints, run in a new interpreter on the one_loop graph."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script, ONE_LOOP],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_commands_import_no_scipy():
    out = _fresh_process(SCRIPT)
    assert out["import"] == {"scipy": False, "concurrent.futures": False, "numpy.random": True}
    assert out["cli"] == {"scipy": False, "locale": True}
    assert out["codes"] == [0] * 5
    assert out["commands"] == {"scipy": False, "concurrent.futures": False}
    # the quadrature is numpy alone
    assert abs(out["mass"] - 1.0) <= 1e-8
    assert out["quadrature"] == {"scipy": False}


PARSERS = """
import argparse, json, sys

built = []
init = argparse.ArgumentParser.__init__

def counted(self, *args, **kwargs):
    built.append(kwargs.get("prog"))
    init(self, *args, **kwargs)

argparse.ArgumentParser.__init__ = counted
import graphstate.cli
out = {"import": len(built)}
for name, argv in [("analyze", ["analyze", sys.argv[1], "--pmax", "3"]), ("bogus", ["bogus"])]:
    built.clear()
    out[name] = [graphstate.cli.run(argv)[0], len(built)]
print(json.dumps(out))
"""


def test_cli_builds_only_the_named_commands_parser():
    # the top-level parser plus one subparser; a wrong name builds all five
    assert _fresh_process(PARSERS) == {"import": 0, "analyze": [0, 2], "bogus": [1, 6]}
