"""The package root re-exports nothing: each public name has one import
path, its submodule, and importing a submodule loads only what it needs."""

import importlib
import os
import pathlib
import pkgutil
import subprocess
import sys

import gyrofde


def test_root_binds_only_version_and_units_loads_no_numpy():
    script = (
        "import sys\n"
        "import gyrofde\n"
        "public = sorted(k for k in vars(gyrofde) if not k.startswith('_'))\n"
        "assert public == [], public\n"
        "assert isinstance(gyrofde.__version__, str)\n"
        "import gyrofde.units\n"
        "numpy = [k for k in sys.modules if k.split('.')[0] == 'numpy']\n"
        "assert not numpy, numpy\n")
    src = str(pathlib.Path(gyrofde.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run([sys.executable, "-c", script],
                         env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr


def test_every_all_entry_resolves():
    """Each name a submodule exports exists in it; the package root no longer
    imports them, so nothing else would notice a stale entry."""
    exporters, missing = [], []
    for info in pkgutil.iter_modules(gyrofde.__path__):
        module = importlib.import_module(f"gyrofde.{info.name}")
        if hasattr(module, "__all__"):
            exporters.append(info.name)
            missing += [f"{info.name}.{name}" for name in module.__all__
                        if not hasattr(module, name)]
    assert {"allan", "budget", "gyro", "montecarlo", "tradestudy"} <= set(exporters)
    assert not missing, missing
