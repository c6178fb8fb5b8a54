import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from favar.panel import (
    PanelSeries,
    load_csv,
    mad_scales,
    write_csv,
)


def test_load_csv_reads_back_values(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,2\n3,4\n5,6\n")
    panel = load_csv(path, has_header=False)
    assert (panel.n, panel.p) == (3, 2)
    assert panel.names == ("V1", "V2")
    np.testing.assert_array_equal(panel.values, [[1, 2], [3, 4], [5, 6]])


def test_load_csv_header_names(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    panel = load_csv(path, has_header=True)
    assert panel.names == ("a", "b")


def test_load_csv_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(ValueError, match="no data rows"):
        load_csv(path, has_header=False)


def test_load_csv_nan_cell_named(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,2\n3,NaN\n5,6\n")
    with pytest.raises(ValueError, match="line 2, column 2"):
        load_csv(path, has_header=False)


def test_load_csv_parse_failure_names_cell(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,2\n3,oops\n")
    with pytest.raises(ValueError, match="line 2, column 2"):
        load_csv(path, has_header=False)


def test_load_csv_ragged_rows_rejected(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ValueError, match="line 2"):
        load_csv(path, has_header=False)


def test_write_then_load_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((20, 5)) * 10.0 ** rng.integers(-12, 12, (20, 5))
    panel = PanelSeries.from_values(values, ["V1", "a,b", 'say "x"', "V4", "V5"])
    path = tmp_path / "x.csv"
    write_csv(panel, path)
    assert b"\r" not in path.read_bytes()  # LF line ends
    back = load_csv(path)
    assert back.names == panel.names
    np.testing.assert_allclose(back.values, panel.values, rtol=1e-12, atol=0.0)


def test_panel_rejects_missing():
    with pytest.raises(ValueError, match="row 2, column 1"):
        PanelSeries.from_values([[1.0, 2.0], [np.nan, 3.0]])


def test_panel_values_are_read_only():
    panel = PanelSeries.from_values([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(ValueError):
        panel.values[0, 0] = 9.0


def test_mad_hand_example():
    panel = PanelSeries.from_values(np.array([[1.0], [2.0], [3.0]]))
    scales = mad_scales(panel)
    assert scales.sigma[0] == 1.0
    assert scales.method == "mad"


def test_mad_constant_column_rejected():
    panel = PanelSeries.from_values(np.full((4, 2), 7.0))
    with pytest.raises(ValueError, match="V1"):
        mad_scales(panel)


def test_mad_zero_from_majority_constant():
    panel = PanelSeries.from_values(np.array([[0.0], [0.0], [0.0], [100.0]]))
    with pytest.raises(ValueError, match="zero median absolute deviation"):
        mad_scales(panel)


def test_mad_even_length_median_convention():
    # median of (1, 2, 4, 8) is 3; |x - 3| = (2, 1, 1, 5) with median 1.5
    panel = PanelSeries.from_values(np.array([[1.0], [2.0], [4.0], [8.0]]))
    assert mad_scales(panel).sigma[0] == 1.5


@given(st.permutations(list(range(4))))
@settings(deadline=None)
def test_mad_permutation_equivariance(perm):
    rng = np.random.default_rng(7)
    values = rng.standard_normal((15, 4))
    base = mad_scales(PanelSeries.from_values(values)).sigma
    permuted = mad_scales(PanelSeries.from_values(values[:, perm])).sigma
    np.testing.assert_array_equal(permuted, base[perm])


def test_standardised_columns_have_unit_mad():
    rng = np.random.default_rng(2)
    panel = PanelSeries.from_values(rng.standard_normal((41, 6)) * [1.0, 5.0, 0.2, 9.0, 3.0, 0.7])
    out = panel.values / mad_scales(panel).sigma
    med = np.median(out, axis=0)
    mad = np.median(np.abs(out - med), axis=0)
    np.testing.assert_allclose(mad, 1.0, rtol=0, atol=1e-12)
