"""Meta-tests: public API hygiene across the whole package.

Checks that hold the library to release quality: every module carries a
docstring, every ``__all__`` name resolves, every public callable is
documented, and the package exposes no accidental top-level junk.
"""

import importlib
import inspect
import pkgutil

import pytest

import repro

MODULES = [
    name
    for _, name, _ in pkgutil.walk_packages(repro.__path__, "repro.")
    if not name.split(".")[-1].startswith("_")
]


@pytest.mark.parametrize("name", MODULES)
def test_module_importable_and_documented(name):
    mod = importlib.import_module(name)
    assert mod.__doc__ and mod.__doc__.strip(), f"{name} lacks a docstring"


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    mod = importlib.import_module(name)
    for symbol in getattr(mod, "__all__", []):
        assert hasattr(mod, symbol), f"{name}.__all__ lists missing {symbol}"


@pytest.mark.parametrize("name", MODULES)
def test_public_callables_documented(name):
    mod = importlib.import_module(name)
    for attr_name in dir(mod):
        if attr_name.startswith("_"):
            continue
        obj = getattr(mod, attr_name)
        if not (inspect.isfunction(obj) or inspect.isclass(obj)):
            continue
        if getattr(obj, "__module__", None) != name:
            continue  # re-export; documented at its home
        assert obj.__doc__ and obj.__doc__.strip(), (
            f"{name}.{attr_name} lacks a docstring"
        )


def test_top_level_all_is_complete():
    for symbol in repro.__all__:
        assert getattr(repro, symbol, None) is not None


def test_version_matches_pyproject():
    import pathlib
    import re

    pyproject = (
        pathlib.Path(repro.__file__).parents[2] / "pyproject.toml"
    ).read_text()
    declared = re.search(r'version = "([^"]+)"', pyproject).group(1)
    assert repro.__version__ == declared


#: ``np.unique`` flags that select NumPy's sort-based path.
_UNIQUE_SORT_FLAGS = {"return_index", "return_inverse", "return_counts"}


def test_no_flagless_np_unique():
    """A flag-less ``np.unique`` takes NumPy's hash-table path on NumPy
    >= 2.3, many times slower than one sort on the integer arrays this
    package deduplicates; ``repro.nputil.sorted_unique`` is the sort-based
    equivalent.  Calls passing a ``return_*`` flag already sort, so they
    may stay."""
    import ast
    import pathlib

    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "unique"
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in ("np", "numpy")
            ):
                continue
            if not _UNIQUE_SORT_FLAGS & {kw.arg for kw in node.keywords}:
                offenders.append((str(path.relative_to(root)), node.lineno))
    assert not offenders, (
        "flag-less np.unique (use repro.nputil.sorted_unique): "
        + ", ".join(f"{f}:{line}" for f, line in sorted(offenders))
    )


#: NumPy names newer than the declared floor (``numpy>=1.24`` in
#: pyproject.toml), by the release that added them; CI installs the latest
#: NumPy, so only this test notices one.
_NUMPY_AFTER_FLOOR = {
    "1.25": {"dtypes", "exceptions"},
    "2.0": {
        "acos", "acosh", "asin", "asinh", "astype", "atan", "atan2",
        "atanh", "bitwise_count", "bitwise_invert", "bitwise_left_shift",
        "bitwise_right_shift", "concat", "isdtype", "matrix_transpose",
        "permute_dims", "pow", "trapezoid", "unique_all", "unique_counts",
        "unique_inverse", "unique_values", "vecdot",
    },
    "2.1": {"cumulative_prod", "cumulative_sum", "unstack"},
    "2.2": {"matvec", "vecmat"},
}


def test_no_numpy_names_newer_than_floor():
    """``src/repro`` uses no NumPy name that the declared floor lacks,
    whether as ``np.<name>`` or through ``from numpy import <name>``."""
    import ast
    import pathlib

    newer = {
        name: release
        for release, names in _NUMPY_AFTER_FLOOR.items()
        for name in names
    }
    root = pathlib.Path(repro.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy")
            ):
                names = [node.attr]
            elif isinstance(node, ast.ImportFrom) and node.module == "numpy":
                names = [alias.name for alias in node.names]
            else:
                continue
            offenders += [
                f"{path.relative_to(root)}:{node.lineno} np.{name} "
                f"(NumPy {newer[name]})"
                for name in names
                if name in newer
            ]
    assert not offenders, (
        "NumPy names newer than the numpy>=1.24 floor: " + ", ".join(offenders)
    )
