"""End-to-end acceptance suite.

Each test checks one numbered acceptance criterion at its stated tolerance
and prints a single [PASS]/[FAIL] line (run with `pytest -s` to see the lines
for passing criteria as well).

Criteria 3 and 4 are known to fail in their square-root parts and are kept
failing rather than retargeted: the speed targets 17 / 15 and the fragility
bound 0.9 for the square-root families depend on the readjustment rule used
to make their spectra commensurate, and the repo does not hold the source
paper's rule (README, "Acceptance suite status"; evidence in CHANGES.md).
The boundary-quadratic slowdown has no free parameter and is checked against
its closed form.  Criterion 8 checks the peak expansion, an asymptotic
statement, at offsets dt = x / sqrt(kappa) with x <= 0.05, in units of the
peak's own time scale.
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
from pstchain.dynamics import averaged_fidelity, end_to_end
from pstchain.inverse_eigen import CouplingSet, reconstruct_couplings, verify_reconstruction
from pstchain.pipeline import STANDARD_FAMILIES

from conftest import SEED
from oracles import transfer_amplitude

N = 31
NAV = 100
GAMMA_TARGETS = {
    "quadratic": 15.4,
    "sqrt_boundary": 17.0,
    "sqrt_center": 15.0,
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
        transfer = end_to_end(chain.couplings)
        deviation = 0.0
        for i in range(1, 11):
            t = (2 * i - 1) * chain.t_pst
            fid = averaged_fidelity(abs(transfer_amplitude(transfer, t)))
            deviation = max(deviation, abs(1.0 - fid))
        worst[name] = deviation
    ok = all(d < 1e-8 for d in worst.values())
    detail = (
        "max |1 - F| over echoes 1..10: "
        + " ".join(f"{k}={v:.1e}" for k, v in worst.items())
        + " (tol 1e-8)"
    )
    assert _report(2, ok, detail), detail


def _unit_levels(name):
    """Unit-amplitude levels of a standard family (README, "Spectrum families")."""
    family, alpha = STANDARD_FAMILIES[name]
    c = (N + 1) / 2
    x = np.arange(1.0, c)
    upper = x**alpha if family == "center" else c**alpha - (c - x) ** alpha
    return np.concatenate([-upper[::-1], [0.0], upper])


def _end_weights(levels):
    """Site-1 spectral weights of the mirror-symmetric chain with these levels.

    For a persymmetric Jacobi matrix w_k is proportional to
    1 / prod_{j != k} |omega_k - omega_j|.
    """
    dist = np.abs(levels[:, None] - levels[None, :]) + np.eye(levels.size)
    log_w = -np.log(dist).sum(axis=1)
    w = np.exp(log_w - log_w.max())
    return w / w.sum()


def _quadratic_boundary_gamma():
    """Closed-form slowdown of the boundary-quadratic family.

    At unit amplitude its gaps are the odd integers N, N-2, ..., 3, so the
    base is 1 and t_pst = pi.  Its largest coupling is the edge bond, with
    J_1^2 = sum_k w_k omega_k^2, so gamma = 4 J_1 t_pst / (pi N) = 4 J_1 / N.
    """
    levels = _unit_levels("quadratic_boundary")
    assert np.array_equal(np.diff(levels)[N // 2 :], np.arange(N, 2, -2))
    return 4.0 * np.sqrt(_end_weights(levels) @ levels**2) / N


def test_criterion_3_speed_ratios(chains31):
    reference = linear_reference_time(N, 1.0)
    ref_ok = abs(reference - np.pi * N / 4.0) <= 1e-9 * (np.pi * N / 4.0)
    gammas = {name: chains31[name].gamma for name in GAMMA_TARGETS}
    gamma_ok = {
        name: abs(gammas[name] - target) <= 0.5
        for name, target in GAMMA_TARGETS.items()
    }
    kb2 = chains31["quadratic_boundary"].gamma
    kb2_expected = _quadratic_boundary_gamma()
    kb2_ok = abs(kb2 - kb2_expected) <= 1e-9 * kb2_expected
    ok = ref_ok and all(gamma_ok.values()) and kb2_ok
    detail = (
        f"t_ref={reference:.9f} (pi N/4 = {np.pi * N / 4.0:.9f}); gamma: "
        + " ".join(
            f"{k}={gammas[k]:.2f} (target {GAMMA_TARGETS[k]}±0.5)"
            for k in GAMMA_TARGETS
        )
        + f" quadratic_boundary={kb2:.6f} (closed form {kb2_expected:.6f}, rel 1e-9)"
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
        transfer = end_to_end(chain.couplings)
        kappa = window_curvature(transfer)
        rel_max = 0.0
        # the expansion is asymptotic: its next term is mu4 dt^4 / 24 with
        # mu4 = sum_{k,s} p_k p_s (omega_k - omega_s)^4, so dt is taken in
        # units of the peak's own time scale 1 / sqrt(kappa)
        for x in (0.01, 0.02, 0.05):
            dt = x / np.sqrt(kappa)
            lhs = 1.0 - abs(transfer_amplitude(transfer, chain.t_pst + dt)) ** 2
            rhs = 0.5 * dt**2 * kappa
            rel_max = max(rel_max, abs(lhs - rhs) / lhs)
        worst[name] = rel_max
    expansion_ok = all(v < 0.01 for v in worst.values())

    widths = {}
    for name in ("linear", "quadratic"):
        chain = chains31[name]
        widths[name] = window_width(end_to_end(chain.couplings), chain.t_pst, 0.99)
    width_ok = widths["quadratic"] > widths["linear"]

    ok = expansion_ok and width_ok
    detail = (
        "expansion rel err at dt sqrt(kappa)<=0.05: "
        + " ".join(f"{k}={v:.2%}" for k, v in worst.items())
        + f" (tol 1%); width(0.99): quad={widths['quadratic']:.3f}"
        f" > lin={widths['linear']:.3f}: {width_ok}"
    )
    assert _report(8, ok, detail), detail


def test_criterion_9_small_chain_closed_forms():
    checks = []

    J = 0.85
    two = end_to_end(CouplingSet([J]))
    checks.append(np.max(np.abs(two[0] - np.array([-J, J]))) < 1e-12)
    ts = np.linspace(0.0, 7.0, 61)
    amp2 = np.array([abs(transfer_amplitude(two, t)) for t in ts])
    checks.append(np.max(np.abs(amp2 - np.abs(np.sin(J * ts)))) < 1e-12)
    fid2 = averaged_fidelity(amp2)
    closed2 = np.abs(np.sin(J * ts)) / 3 + np.sin(J * ts) ** 2 / 6 + 0.5
    checks.append(np.max(np.abs(fid2 - closed2)) < 1e-12)
    checks.append(abs(window_curvature(two) - 2 * J**2) < 1e-12)

    K = 1.3
    three = end_to_end(CouplingSet([K, K]))
    target = np.array([-np.sqrt(2) * K, 0.0, np.sqrt(2) * K])
    checks.append(np.max(np.abs(three[0] - target)) < 1e-12)
    amp3 = np.array([abs(transfer_amplitude(three, t)) for t in ts])
    checks.append(np.max(np.abs(amp3 - np.sin(K * ts / np.sqrt(2)) ** 2)) < 1e-12)
    checks.append(abs(window_curvature(three) - 2 * K**2) < 1e-12)

    ok = all(checks)
    detail = f"2- and 3-site closed forms: {sum(checks)}/{len(checks)} at 1e-12"
    assert _report(9, ok, detail), detail
