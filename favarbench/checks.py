"""Correctness checks made apart from the program, with numpy only.

Each check recomputes what it needs from the inputs and the public result
objects, or tests a property the method must have, and returns a list of
failure messages; an empty list means the check passed. Nothing here calls
into ``favar``, so a fault in the program cannot hide itself by also being
in the check.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MASK64 = (1 << 64) - 1
GOLDEN_GAMMA = 0x9E3779B97F4A7C15


def lagged_gram(xi: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Gram matrix and cross-moments of the lag-d design, divisor n - d."""
    n = xi.shape[0]
    design = np.hstack([xi[d - ell : n - ell] for ell in range(1, d + 1)])
    response = xi[d:]
    return design.T @ design / (n - d), design.T @ response / (n - d)


def kkt_gap(Gamma: np.ndarray, gamma: np.ndarray, A: np.ndarray, lam: float) -> float:
    """Worst subgradient violation of  b'Gb - 2b'g + lam|b|_1  over all rows."""
    B = A.T
    grad = 2.0 * (Gamma @ B - gamma)
    active = B != 0.0
    on = np.abs(grad + lam * np.sign(B))[active]
    off = (np.abs(grad) - lam)[~active]
    worst = max(on.max(initial=0.0), off.max(initial=0.0))
    return float(max(worst, 0.0))


def check_kkt(xi: np.ndarray, d: int, A: np.ndarray, lam: float, tol: float) -> list[str]:
    """The lasso rows meet the KKT conditions at ``lam`` to 10 * tol."""
    Gamma, gamma = lagged_gram(np.asarray(xi, float), d)
    gap = kkt_gap(Gamma, gamma, np.asarray(A, float), lam)
    limit = 10.0 * tol * (1.0 + 1e-9)
    if not gap <= limit:
        return [f"KKT gap {gap:.3e} at lambda {lam:.6g} exceeds 10*tol = {10 * tol:.1e}"]
    return []


def check_lambda_choice(fold_scores, grid, chosen: int, lam: float) -> list[str]:
    """The chosen lambda is the first minimiser of the mean CV score."""
    mean = np.asarray(fold_scores, float).mean(axis=0)
    first = int(np.flatnonzero(mean == mean.min())[0])
    out = []
    if chosen != first:
        out.append(f"lambda index {chosen} is not the first CV minimiser {first}")
    if lam != float(grid[first]):
        out.append(f"lambda {lam!r} is not grid[{first}] = {float(grid[first])!r}")
    return out


def check_tau_choice(scores, grid, chosen: int, tau: float) -> list[str]:
    """The chosen tau is the largest minimiser of the tau scores."""
    scores = np.asarray(scores, float)
    last = int(np.flatnonzero(scores == scores.min())[-1])
    out = []
    if chosen != last:
        out.append(f"tau index {chosen} is not the largest CV minimiser {last}")
    if tau != float(grid[last]):
        out.append(f"tau {tau!r} is not grid[{last}] = {float(grid[last])!r}")
    return out


def mad(x: np.ndarray) -> np.ndarray:
    """Raw median absolute deviation of each column."""
    return np.median(np.abs(x - np.median(x, axis=0)), axis=0)


def check_split(x: np.ndarray, tau: float, common, idio, eigvecs) -> list[str]:
    """common + idio is the panel clipped at MAD * tau; eigenvectors orthonormal."""
    x = np.asarray(x, float)
    thr = mad(x) * tau
    clipped = np.clip(x, -thr, thr)
    out = []
    diff = float(np.max(np.abs(np.asarray(common) + np.asarray(idio) - clipped)))
    if not diff <= 1e-9 * max(1.0, float(np.max(np.abs(clipped)))):
        out.append(f"common + idio differs from the clipped panel by {diff:.3e}")
    E = np.asarray(eigvecs, float)
    ortho = float(np.max(np.abs(E.T @ E - np.eye(E.shape[1]))))
    if not ortho <= 1e-9:
        out.append(f"loading eigenvectors are not orthonormal (max |E'E - I| = {ortho:.3e})")
    return out


def max_row_l2(A_hat: np.ndarray, A: np.ndarray) -> float:
    return float(np.max(np.sqrt(np.sum((np.asarray(A_hat) - np.asarray(A)) ** 2, axis=1))))


def check_beats_zero(errors, zero_errors, what: str) -> list[str]:
    """The mean error is below that of the all-zero estimate."""
    err, zero = float(np.mean(errors)), float(np.mean(zero_errors))
    if not err < zero:
        return [f"{what} {err:.6g} does not beat the zero estimate {zero:.6g}"]
    return []


def check_forecast(run, x: np.ndarray, window: int, horizon: int) -> list[str]:
    """Every origin present and aligned; forecast = common + idio parts."""
    x = np.asarray(x, float)
    expected = np.arange(window - 1, x.shape[0] - horizon)
    out = []
    if run.skipped:
        out.append(f"{len(run.skipped)} origins skipped, first: {run.skipped[0]}")
    if not np.array_equal(np.asarray(run.origins), expected):
        out.append(f"origins {list(run.origins)} are not {list(expected)}")
        return out
    if not np.array_equal(np.asarray(run.realized), x[expected + horizon]):
        out.append("realised values are not the observations at origin + horizon")
    parts = np.asarray(run.common_part) + np.asarray(run.idio_part)
    gap = float(np.max(np.abs(np.asarray(run.forecasts) - parts)))
    if not gap <= 1e-12 * max(1.0, float(np.max(np.abs(parts)))):
        out.append(f"forecast differs from common + idio part by {gap:.3e}")
    return out


def splitmix64(master: int, index: int) -> int:
    """Output number ``index + 1`` of the standard splitmix64 generator."""
    state = master & MASK64
    z = 0
    for _ in range(index + 1):
        state = (state + GOLDEN_GAMMA) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        z ^= z >> 31
    return z


def check_replications(out_dir, master: int, reps: int, ratios: dict[str, float]) -> list[str]:
    """RME ratios equal sums over the replication files; seeds are splitmix64."""
    rep_dir = Path(out_dir) / "replications"
    files = sorted(rep_dir.glob("rep_*.json"))
    if len(files) != reps:
        return [f"{len(files)} replication files in {rep_dir}, expected {reps}"]
    out = []
    sums = {norm: [0.0, 0.0] for norm in ratios}
    for i, path in enumerate(files):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if rec.get("rep") != i or path.name != f"rep_{i:04d}.json":
            out.append(f"{path.name} holds replication {rec.get('rep')}, expected {i}")
        if rec.get("seed") != splitmix64(master, i):
            out.append(f"{path.name} seed {rec.get('seed')} is not splitmix64({master}, {i})")
        for norm, acc in sums.items():
            acc[0] += rec["errors"][norm]["trunc"]
            acc[1] += rec["errors"][norm]["plain"]
    for norm, (num, den) in sums.items():
        if not abs(num / den - ratios[norm]) <= 1e-12 * abs(num / den):
            out.append(f"RME {norm} {ratios[norm]!r} is not the file sum ratio {num / den!r}")
    return out
