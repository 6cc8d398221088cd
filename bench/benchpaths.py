"""Locations of the package and the test generators inside a checkout.

The benchmark lives in ``bench/`` at the root of a checkout and drives the
package from ``src/`` with the generators of ``tests/conftest.py``.
"""

from __future__ import annotations

import importlib.util
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
PACKAGE = os.path.join(SRC, "daeminimax", "__init__.py")
CONFTEST = os.path.join(ROOT, "tests", "conftest.py")
WORK = os.path.join(ROOT, "bench", "_work")
OUT = os.path.join(ROOT, "bench", "_out")


class MissingCheckout(RuntimeError):
    """The package sources or the test generators are not where expected."""


def install_package_path() -> None:
    """Make ``import daeminimax`` load the checkout's sources."""
    for path in (PACKAGE, CONFTEST):
        if not os.path.isfile(path):
            raise MissingCheckout(f"{os.path.relpath(path, ROOT)} not found under {ROOT}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)


def generators():
    """The ``tests/conftest.py`` module, loaded under a private name."""
    install_package_path()
    spec = importlib.util.spec_from_file_location("bench_conftest", CONFTEST)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
