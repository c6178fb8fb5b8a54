import importlib.util
import sys
from pathlib import Path

import numpy as np
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


def test_time_pair_summary_reports_cpu_and_wall_ratios_and_each_workers_peak_rss(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # time_pair imports compare_fits
    time_pair = load_script("time_pair")
    # rounds x (old, new): CPU ratios 0.8, 0.5, 1.2, 0.7 and wall ratios 1.1, 0.9, 1.0, 1.2
    cpu = np.array([[1.0, 0.8], [2.0, 1.0], [1.0, 1.2], [4.0, 2.8]])
    wall = np.array([[1.0, 1.1], [1.0, 0.9], [2.0, 2.0], [1.0, 1.2]])
    rss = np.array([[40.44, 41.02], [39.96, 40.61]])  # workers x (old, new)
    assert time_pair.summary("w", cpu, wall, 2, rss) == (
        "w: 4 rounds; new/old CPU per round median 0.750 (quartiles 0.650-0.900); "
        "new faster in 3/4; median CPU per operation old 750.000 ms, new 550.000 ms\n"
        "w: new/old wall per round median 1.050 (quartiles 0.975-1.125); "
        "peak RSS per worker old 40.4, 40.0 MB, new 41.0, 40.6 MB"
    )
