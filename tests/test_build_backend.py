"""The in-tree build backend ships source only, not what running it leaves."""
import importlib.util
import tarfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def backend():
    spec = importlib.util.spec_from_file_location(
        "backend", ROOT / "_build" / "backend.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.fixture
def tree(tmp_path):
    """A checkout whose ``src/`` holds a compiled jar and a bytecode cache."""
    for rel in (
        "pyproject.toml",
        "src/repro/__init__.py",
        "src/repro/core/kernel.py",
        "src/repro/core/.jvm_build/0123abcd/uss-sketch.jar",
        "src/repro/core/__pycache__/kernel.cpython-311.pyc",
        "_build/backend.py",
    ):
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(b"x")
    return tmp_path


def test_package_files_has_no_dot_directory(backend):
    files = backend._package_files()
    assert "repro/core/kernel.py" in files
    for arc in files:
        assert not any(part.startswith(".") for part in arc.split("/")[:-1]), arc


def test_wheel_and_sdist_skip_build_leftovers(backend, tree, tmp_path, monkeypatch):
    monkeypatch.setattr(backend, "ROOT", str(tree))
    assert set(backend._package_files()) == {
        "repro/__init__.py",
        "repro/core/kernel.py",
    }
    out = tmp_path / "dist"
    out.mkdir()
    with tarfile.open(out / backend.build_sdist(str(out))) as tf:
        names = {n.split("/", 1)[1] for n in tf.getnames() if "/" in n}
    assert {"src/repro/core/kernel.py", "_build/backend.py"} <= names
    assert not any(".jvm_build" in n or "__pycache__" in n for n in names)
