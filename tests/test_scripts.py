import importlib.util
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_fits_refuses_a_tree_whose_favar_comes_from_elsewhere(tmp_path, capsys,
                                                                     monkeypatch):
    # a tree that only links to another tree's favar imports it from there,
    # as a tree holding no favar would import an installed one
    real = Path(__file__).resolve().parents[1] / "src"
    (tmp_path / "favar").symlink_to(real / "favar", target_is_directory=True)
    compare_fits = load_script("compare_fits")
    compare_fits.check_tree(str(real), str(real / "favar" / "__init__.py"))
    with pytest.raises(compare_fits.TreeError, match=f"from {real / 'favar'}, not from"):
        compare_fits.check_tree(str(tmp_path), str(tmp_path / "favar" / "__init__.py"))
    monkeypatch.setattr(sys, "argv", ["compare_fits.py", str(real), str(tmp_path)])
    assert compare_fits.main() == 1
    assert capsys.readouterr().err == (
        f"error: favar was imported from {real / 'favar'}, not from {tmp_path.resolve()}\n"
    )
