"""Helpers that more than one test module uses."""

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from rangesim.airmodel import TileLayout

SRC = Path(__file__).resolve().parents[1] / "src"


def reference_layout():
    """The documented default geometry: 1024 carriers, 16 tiles of 4, 4 blocks."""
    return TileLayout.uniform(1024, 4, 16, 4, cp_ranging=256)


def wrap_half(x):
    """Reduce to [-1/2, 1/2)."""
    return x - np.floor(x + 0.5)


def pickled(obj):
    """``obj`` after a round trip through pickle."""
    return pickle.loads(pickle.dumps(obj))


# each way to copy an object, for parametrize: a copy must hold what its original holds
COPIES = [pytest.param(f, id=f.__name__) for f in (pickled, copy.deepcopy, copy.copy)]
AS_BUILT_AND_COPIES = [pytest.param(lambda obj: obj, id="as built"), *COPIES]


def flagging_invalid(gufunc):
    """A stand-in for one of numpy.linalg's LAPACK gufuncs that fails as they do: it raises the
    floating-point invalid flag inside the call (inf - inf), then returns ``gufunc``'s result."""
    def stub(a, signature):
        np.subtract(np.inf, np.inf)
        return gufunc(a, signature=signature)
    return stub


def run_module(*args, timeout):
    """``python -m rangesim ARGS`` in a child process that imports rangesim from ``src`` first,
    as pytest does, so an uninstalled checkout runs it too."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "rangesim", *map(str, args)],
                          capture_output=True, text=True, timeout=timeout, env=env)
