"""End-to-end acceptance suite.

Each test checks one numbered acceptance criterion at its stated tolerance
and prints a single [PASS]/[FAIL] line (run with `pytest -s` to see the lines
for passing criteria as well).

Three checks are known to fail and are kept failing deliberately rather than
loosened; see the notes in the individual tests and README:
  - criterion 3: the transfer-speed targets (17, 15, 14.5) for the
    square-root and boundary-quadratic families are not reproduced by the
    documented commensuration procedure and max-coupling normalization
    (measured: 4.4, 7.7, 25.3);
  - criterion 4: the square-root center family's mean fidelity at its own
    transfer time under 1% disorder sits near 0.95, not below 0.9, because
    the commensuration here yields a roughly 2x shorter transfer time than
    the reference values assume;
  - criterion 8: the quadratic peak expansion holds to 1% at dt = 0.01 t_pst
    only for chains whose boundary-state energy spread is small; for the
    delocalized families that dt is far outside the quadratic regime.
"""

import time

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from pstchain.analysis import (
    level_shift_stats,
    linear_reference_time,
    window_curvature,
    window_width,
)
from pstchain.disorder import DisorderModel, echo_decay, perturb_couplings, run_ensemble
from pstchain.dynamics import (
    averaged_fidelity,
    diagonalize,
    fidelity_trace,
    transfer_amplitude,
)
from pstchain.inverse_eigen import CouplingSet, reconstruct_couplings, verify_reconstruction

from conftest import SEED

N = 31
NAV = 100
GAMMA_TARGETS = {
    "quadratic": 15.4,
    "sqrt_boundary": 17.0,
    "sqrt_center": 15.0,
    "quadratic_boundary": 14.5,
}


def _report(num: int, ok: bool, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] acceptance {num}: {detail}")
    return ok


def test_criterion_1_roundtrip_exactness(chains31):
    start = time.perf_counter()
    residuals = {
        name: verify_reconstruction(
            reconstruct_couplings(chain.spectrum), chain.spectrum
        )
        for name, chain in chains31.items()
    }
    elapsed = time.perf_counter() - start
    ok = all(r < 1e-9 for r in residuals.values())
    detail = (
        f"roundtrip residuals {' '.join(f'{k}={v:.1e}' for k, v in residuals.items())}"
        f" (tol 1e-9, {elapsed:.2f}s)"
    )
    assert _report(1, ok, detail), detail


def test_criterion_2_pst_attainment(chains31):
    worst = {}
    for name, chain in chains31.items():
        eig = diagonalize(chain.couplings)
        deviation = 0.0
        for i in range(1, 11):
            t = (2 * i - 1) * chain.t_pst
            fid = averaged_fidelity(abs(transfer_amplitude(eig, t)))
            deviation = max(deviation, abs(1.0 - fid))
        worst[name] = deviation
    ok = all(d < 1e-8 for d in worst.values())
    detail = (
        "max |1 - F| over echoes 1..10: "
        + " ".join(f"{k}={v:.1e}" for k, v in worst.items())
        + " (tol 1e-8)"
    )
    assert _report(2, ok, detail), detail


def test_criterion_3_speed_ratios(chains31):
    reference = linear_reference_time(N, 1.0)
    ref_ok = abs(reference - np.pi * N / 4.0) <= 1e-9 * (np.pi * N / 4.0)
    gammas = {name: chains31[name].gamma for name in GAMMA_TARGETS}
    gamma_ok = {
        name: abs(gammas[name] - target) <= 0.5
        for name, target in GAMMA_TARGETS.items()
    }
    ok = ref_ok and all(gamma_ok.values())
    detail = (
        f"t_ref={reference:.9f} (pi N/4 = {np.pi * N / 4.0:.9f}); gamma: "
        + " ".join(
            f"{k}={gammas[k]:.2f} (target {GAMMA_TARGETS[k]}±0.5)"
            for k in GAMMA_TARGETS
        )
    )
    assert _report(3, ok, detail), detail


@pytest.fixture(scope="module")
def fidelity_at_tpst(chains31):
    def at(name, eps, nav=NAV):
        chain = chains31[name]
        model = DisorderModel(epsilon=eps, n_realizations=nav, base_seed=SEED)
        res = run_ensemble(chain.couplings, model, [chain.t_pst])
        return res.mean_fidelity[0], res.std_error[0]

    return at


def test_criterion_4_disorder_robustness_ordering(chains31, fidelity_at_tpst):
    lin, _ = fidelity_at_tpst("linear", 0.01)
    quad, _ = fidelity_at_tpst("quadratic", 0.01)
    robust_ok = lin >= 0.98 and quad >= 0.98

    kb2, _ = fidelity_at_tpst("quadratic_boundary", 0.01)
    kc_half, _ = fidelity_at_tpst("sqrt_center", 0.01)
    fragile_ok = kb2 < 0.9 and kc_half < 0.9

    lin3, lin3_se = fidelity_at_tpst("linear", 0.3)
    quad3, quad3_se = fidelity_at_tpst("quadratic", 0.3)
    strong_ok = (quad3 - lin3) > np.hypot(lin3_se, quad3_se)

    sweep_ok = True
    sweep_min = {}
    for name in ("linear", "quadratic"):
        vals = [fidelity_at_tpst(name, round(0.01 * k, 2))[0] for k in range(1, 16)]
        sweep_min[name] = min(vals)
        sweep_ok = sweep_ok and min(vals) > 0.9

    ok = robust_ok and fragile_ok and strong_ok and sweep_ok
    detail = (
        f"eps=0.01: lin={lin:.4f} quad={quad:.4f} (>=0.98); "
        f"kb2={kb2:.4f} kc_half={kc_half:.4f} (<0.9); "
        f"eps=0.3: quad-lin={quad3 - lin3:.4f} vs se={np.hypot(lin3_se, quad3_se):.4f}; "
        f"sweep<=0.15 min: lin={sweep_min['linear']:.4f} quad={sweep_min['quadratic']:.4f} (>0.9)"
    )
    assert _report(4, ok, detail), detail


def test_criterion_5_echo_decay_comparison(chains31):
    wins = 0
    strengths = [round(0.01 * k, 2) for k in range(1, 11)]
    for eps in strengths:
        finals = {}
        for name in ("linear", "quadratic"):
            model = DisorderModel(epsilon=eps, n_realizations=NAV, base_seed=SEED)
            res = echo_decay(chains31[name].couplings, model, 9)
            finals[name] = res.mean_fidelity[-1]
        wins += finals["quadratic"] >= finals["linear"]
    ok = wins >= 9
    detail = f"quadratic >= linear at echo 9 for {wins}/10 strengths (need >= 9)"
    assert _report(5, ok, detail), detail


def test_criterion_6_spectral_rigidity(chains31):
    per_family = 200  # 5 families x 200 = 1000 realizations
    worst_zero, worst_sym = 0.0, 0.0
    for chain in chains31.values():
        model = DisorderModel(epsilon=0.1, n_realizations=per_family, base_seed=SEED)
        for r in range(per_family):
            pc = perturb_couplings(chain.couplings, model, r)
            vals = eigvalsh_tridiagonal(np.zeros(pc.n_sites), pc.couplings)
            scale = np.abs(vals).max()
            worst_zero = max(worst_zero, np.min(np.abs(vals)) / scale)
            worst_sym = max(worst_sym, np.max(np.abs(vals + vals[::-1])) / scale)
    ok = worst_zero < 1e-12 and worst_sym < 1e-10
    detail = (
        f"1000 realizations: worst zero-mode {worst_zero:.1e} (tol 1e-12), "
        f"worst asymmetry {worst_sym:.1e} (tol 1e-10)"
    )
    assert _report(6, ok, detail), detail


def test_criterion_7_level_shift_scaling(chains31):
    profiles = {}
    for name in ("quadratic", "linear"):
        for eps in (0.01, 0.05):
            model = DisorderModel(epsilon=eps, n_realizations=1000, base_seed=SEED)
            stats = level_shift_stats(chains31[name].couplings, model)
            profiles[name, eps] = stats.normalized_std

    keep = np.ones(N, dtype=bool)
    keep[N // 2] = False
    collapse_ok, collapse_worst = True, 0.0
    for name in ("quadratic", "linear"):
        a, b = profiles[name, 0.01][keep], profiles[name, 0.05][keep]
        rel = np.abs(b - a) / a
        collapse_worst = max(collapse_worst, rel.max())
        collapse_ok = collapse_ok and rel.max() < 0.1

    central = [k for k in range(N // 2 - 5, N // 2 + 6) if k != N // 2]
    ratio = np.mean(profiles["quadratic", 0.01][central] ** 2) / np.mean(
        profiles["linear", 0.01][central] ** 2
    )
    ratio_ok = ratio < 0.3

    ok = collapse_ok and ratio_ok
    detail = (
        f"collapse worst rel dev {collapse_worst:.2%} (tol 10%); "
        f"central variance ratio quad/lin = {ratio:.3f} (tol < 0.3)"
    )
    assert _report(7, ok, detail), detail


def test_criterion_8_window_expansion(chains31):
    worst = {}
    for name, chain in chains31.items():
        eig = diagonalize(chain.couplings)
        kappa = window_curvature(eig)
        rel_max = 0.0
        for frac in (0.002, 0.005, 0.01):
            dt = frac * chain.t_pst
            lhs = 1.0 - abs(transfer_amplitude(eig, chain.t_pst + dt)) ** 2
            rhs = 0.5 * dt**2 * kappa
            rel_max = max(rel_max, abs(lhs - rhs) / lhs)
        worst[name] = rel_max
    expansion_ok = all(v < 0.01 for v in worst.values())

    widths = {}
    for name in ("linear", "quadratic"):
        chain = chains31[name]
        eig = diagonalize(chain.couplings)
        tr = fidelity_trace(eig, 0.95 * chain.t_pst, 1.05 * chain.t_pst, 16001)
        widths[name] = window_width(tr, 0.99)
    width_ok = widths["quadratic"] > widths["linear"]

    ok = expansion_ok and width_ok
    detail = (
        "expansion rel err at dt<=0.01 t_pst: "
        + " ".join(f"{k}={v:.2%}" for k, v in worst.items())
        + f" (tol 1%); width(0.99): quad={widths['quadratic']:.3f}"
        f" > lin={widths['linear']:.3f}: {width_ok}"
    )
    assert _report(8, ok, detail), detail


def test_criterion_9_small_chain_closed_forms():
    checks = []

    J = 0.85
    two = diagonalize(CouplingSet([J]))
    checks.append(np.max(np.abs(two.eigenvalues - np.array([-J, J]))) < 1e-12)
    ts = np.linspace(0.0, 7.0, 61)
    amp2 = np.array([abs(transfer_amplitude(two, t)) for t in ts])
    checks.append(np.max(np.abs(amp2 - np.abs(np.sin(J * ts)))) < 1e-12)
    fid2 = averaged_fidelity(amp2)
    closed2 = np.abs(np.sin(J * ts)) / 3 + np.sin(J * ts) ** 2 / 6 + 0.5
    checks.append(np.max(np.abs(fid2 - closed2)) < 1e-12)
    checks.append(abs(window_curvature(two) - 2 * J**2) < 1e-12)

    K = 1.3
    three = diagonalize(CouplingSet([K, K]))
    target = np.array([-np.sqrt(2) * K, 0.0, np.sqrt(2) * K])
    checks.append(np.max(np.abs(three.eigenvalues - target)) < 1e-12)
    amp3 = np.array([abs(transfer_amplitude(three, t)) for t in ts])
    checks.append(np.max(np.abs(amp3 - np.sin(K * ts / np.sqrt(2)) ** 2)) < 1e-12)
    checks.append(abs(window_curvature(three) - 2 * K**2) < 1e-12)

    ok = all(checks)
    detail = f"2- and 3-site closed forms: {sum(checks)}/{len(checks)} at 1e-12"
    assert _report(9, ok, detail), detail
