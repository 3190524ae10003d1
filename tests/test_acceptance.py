"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to later
calibration. All randomness is seeded, so the suite is deterministic.
"""

import math
import time
from collections import Counter
from fractions import Fraction

from scipy import stats

from frugaldp.approx_mech import derive_approx_params, mech_approx_efficient
from frugaldp.audit_harness import (
    chi_square,
    oracle_joint_dist,
    privacy_audit,
    tv_distance,
)
from frugaldp.bit_tape import BitTape
from frugaldp.cli import RunConfig, run
from frugaldp.core_samplers import locate
from frugaldp.precise_math import exp_pos
from frugaldp.pure_mech import PureParams, derive_pure_params, mech_pure_efficient
from frugaldp.release import CountVector
from reference import (
    FiniteLaw,
    approx_params_from_sigma,
    crossing_shifts,
    mech_pure_reference,
    two_sample_chi_square,
)


def _verdict(number: int, description: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {number:02d}] {status}: {description} {detail}".rstrip())
    assert ok, f"criterion {number}: {description} {detail}"


def test_criterion_01_approx_equivalence():
    """Efficient approx release vs exact oracle of the reference law."""
    params = approx_params_from_sigma(2, 3, Fraction(2), Fraction(1, 1024))
    counts = CountVector(d=2, n=20, sums=(5, 11))
    oracle = oracle_joint_dist(counts, params)
    tape = BitTape(seed=11_001)
    n = 100_000
    started = time.perf_counter()
    hist = Counter()
    for _ in range(n):
        hist[mech_approx_efficient(counts, params, tape).values] += 1
    elapsed = time.perf_counter() - started
    p_value = chi_square(hist, oracle)
    tv = float(tv_distance(hist, oracle))
    ok = p_value >= 0.001 and tv <= 0.02 and elapsed < 60.0
    _verdict(
        1,
        "approx equivalence (d=2, s=3, sigma^2=2, certified r)",
        ok,
        f"(chi2 p={p_value:.4f}, TV={tv:.4f}, {elapsed:.1f}s for 1e5 runs, r={params.r})",
    )


def test_criterion_02_pure_equivalence():
    """Efficient pure release vs exact oracle, plus reference variant tests."""
    params = PureParams(2, 2, Fraction(1), 2)  # t = d/eps = 2, m = 2
    counts = CountVector(d=2, n=10, sums=(3, 7))
    oracle = oracle_joint_dist(counts, params)
    n = 100_000
    tape5 = BitTape(seed=11_002)
    hist5 = Counter()
    for _ in range(n):
        hist5[mech_pure_efficient(counts, params, tape5)[0].values] += 1
    p_value = chi_square(hist5, oracle)
    tv = float(tv_distance(hist5, oracle))
    tape2, tape4 = BitTape(seed=11_003), BitTape(seed=11_004)
    hist2, hist4 = Counter(), Counter()
    for _ in range(n):
        hist2[mech_pure_reference(counts, params, 2, tape2).values] += 1
        hist4[mech_pure_reference(counts, params, 4, tape4).values] += 1
    p24 = two_sample_chi_square(hist2, hist4)
    p4 = chi_square(hist4, oracle)
    ok = p_value >= 0.001 and tv <= 0.02 and p24 >= 0.001 and p4 >= 0.001
    _verdict(
        2,
        "pure equivalence (d=2, t=2, m=2, s=2) incl. variants 2=4 and 4 vs oracle",
        ok,
        f"(oracle p={p_value:.4f}, TV={tv:.4f}, p24={p24:.4f}, p4={p4:.4f})",
    )


def test_criterion_03_approx_deterministic_accuracy():
    """Zero violations of the deterministic envelope r(2s+1) in 1e4 runs."""
    params = derive_approx_params(Fraction(2), Fraction(1, 4), 8, 4)
    counts = CountVector(d=8, n=64, sums=(0, 9, 17, 25, 33, 41, 50, 64))
    bound = params.r * (2 * params.s + 1)
    tape = BitTape(seed=11_005)
    violations = 0
    worst = 0
    for _ in range(10_000):
        res = mech_approx_efficient(counts, params, tape)
        err = max(abs(y - s) for y, s in zip(res.values, counts.sums))
        worst = max(worst, err)
        if err > bound:
            violations += 1
    ok = violations == 0
    _verdict(
        3,
        "approx deterministic accuracy (d=8, s=4, 1e4 runs)",
        ok,
        f"(bound={bound}, worst observed={worst}, violations={violations})",
    )


def test_criterion_04_pure_probabilistic_accuracy():
    """Exceedance rate of the pure accuracy envelope stays within beta."""
    params = derive_pure_params(Fraction(1), 16, 2)
    counts = CountVector(d=16, n=128, sums=tuple(8 * i for i in range(16)))
    beta = 0.1
    alpha = float(params.scale) * math.log(params.d / beta) + 2 * params.grid
    tape = BitTape(seed=11_006)
    n = 10_000
    exceed = 0
    for _ in range(n):
        res, _ = mech_pure_efficient(counts, params, tape)
        if max(abs(y - s) for y, s in zip(res.values, counts.sums)) > alpha:
            exceed += 1
    limit = beta + 3 * math.sqrt(beta * (1 - beta) / n)
    ok = exceed / n <= limit
    _verdict(
        4,
        "pure probabilistic accuracy (d=16, s=2, beta=0.1, 1e4 runs)",
        ok,
        f"(alpha={alpha:.1f}, rate={exceed / n:.4f}, limit={limit:.4f})",
    )


def test_criterion_05_boundary_law():
    """At most two crossing shifts per coordinate, exhaustively over omega."""
    import random

    rng = random.Random(11_007)
    worst = 0
    checked = 0
    for s in (3, 8, 17):
        for _ in range(100):
            y = rng.randrange(0, 10**6)
            unit = rng.randrange(1, 50)
            count = len(crossing_shifts(y, unit, s))
            worst = max(worst, count)
            checked += 1
            if count > 2:
                _verdict(5, "boundary law", False, f"(y={y}, unit={unit}, s={s}: {count})")
    _verdict(
        5,
        "boundary law: <= 2 crossing shifts (s in {3,8,17}, 300 coordinates)",
        worst <= 2,
        f"(worst={worst}, checked={checked})",
    )


def test_criterion_06_randomness_scaling():
    """Noise bits scale like c/s; total at s=d stays below 40 log2 d."""
    d = 256
    epsilon, delta = Fraction(1), Fraction(1, 1 << 20)
    # Spread the true counts over a range much wider than the coarsest grid,
    # so each coordinate's crossing shifts decorrelate from the others'.
    n_rows = 1_000_003
    counts = CountVector(d=d, n=n_rows, sums=tuple((40_009 * i) % n_rows for i in range(d)))
    runs = 400
    noise_per_s: dict[int, float] = {}
    total_at_full = None
    for idx, s in enumerate((4, 16, 64, 256)):
        params = derive_approx_params(epsilon, delta, d, s)
        tape = BitTape(seed=11_100 + idx)
        noise = 0
        total = 0
        for _ in range(runs):
            res = mech_approx_efficient(counts, params, tape)
            noise += res.report.bits_by_category.get("gaussian", 0)
            total += res.report.bits_total
        noise_per_s[s] = noise / runs
        if s == d:
            total_at_full = total / runs
    scaled = [noise_per_s[s] * s for s in (4, 16, 64)]
    ratio = max(scaled) / min(scaled)
    budget = 40 * math.log2(d)
    ok = ratio <= 2.0 and total_at_full is not None and total_at_full <= budget
    _verdict(
        6,
        "randomness scaling at d=256: noise ~ c/s and total(s=d) <= 40 log2 d",
        ok,
        f"(c/s spread={ratio:.2f}, total at s=d: {total_at_full:.1f} <= {budget:.0f}, "
        f"noise bits/run: {', '.join(f's={s}: {noise_per_s[s]:.0f}' for s in (4, 16, 64))})",
    )


def test_criterion_07_entropy_sampler():
    """One locate per draw of a finite law: mean bits <= H(X) + 8, chi-square fit, bounded depth."""
    bin_d, bin_p = 16, Fraction(1, 3)
    bin_probs = [
        Fraction(math.comb(bin_d, j)) * bin_p**j * (1 - bin_p) ** (bin_d - j)
        for j in range(bin_d + 1)
    ]
    cases = [
        ("uniform-2", [Fraction(1, 2)] * 2),
        ("uniform-8", [Fraction(1, 8)] * 8),
        ("dyadic-4", [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]),
        ("binomial-16-1/3", bin_probs),
    ]
    n = 250_000  # 1e6 draws across the four laws
    max_depth = 0
    ok = True
    details = []
    for idx, (name, probs) in enumerate(cases):
        law = FiniteLaw.from_fractions(probs)
        tape = BitTape(seed=11_200 + idx)
        hist = Counter()
        before = tape.bits_consumed
        for _ in range(n):
            start = tape.bits_consumed
            hist[1 + locate(tape, law.bounds, range(1, law.k))] += 1
            max_depth = max(max_depth, tape.bits_consumed - start)
        mean_bits = (tape.bits_consumed - before) / n
        entropy = -sum(float(p) * math.log2(float(p)) for p in probs)
        observed = [hist.get(i, 0) for i in range(1, len(probs) + 1)]
        expected = [float(p) * n for p in probs]
        pooled_obs, pooled_exp, rest_o, rest_e = [], [], 0.0, 0.0
        for o, e in zip(observed, expected):
            if e < 5.0:
                rest_o += o
                rest_e += e
            else:
                pooled_obs.append(o)
                pooled_exp.append(e)
        if rest_e > 0:
            pooled_obs.append(rest_o)
            pooled_exp.append(rest_e)
        _, p_value = stats.chisquare(pooled_obs, pooled_exp)
        case_ok = mean_bits <= entropy + 8 and p_value >= 0.001
        ok = ok and case_ok
        details.append(f"{name}: bits={mean_bits:.3f} H={entropy:.3f} p={p_value:.3f}")
    ok = ok and max_depth <= 40
    _verdict(
        7,
        "entropy sampler: bits <= H + 8, chi-square pass, depth <= 40 over 1e6 draws",
        ok,
        f"(max depth={max_depth}; " + "; ".join(details) + ")",
    )


def test_criterion_08_oracle_privacy():
    """Certified singleton ratios respect the privacy envelopes at d=1."""
    eps_pure = Fraction(1, 16)
    pure_params = derive_pure_params(eps_pure, 1, 2)
    zero = CountVector(d=1, n=8, sums=(0,))
    one = CountVector(d=1, n=8, sums=(1,))
    pure_res = privacy_audit(zero, one, pure_params, eps_pure, Fraction(0))
    eps_a, delta_a = Fraction(1), Fraction(1, 4)
    approx_params = derive_approx_params(eps_a, delta_a, 1, 3)
    envelope = (
        Fraction(exp_pos(eps_a, 96)[1], 1 << 96) + 1
    ) * approx_params.gamma.hi + delta_a
    approx_res = privacy_audit(zero, one, approx_params, eps_a, envelope)
    ok = (
        pure_res.passed
        and pure_res.epsilon_hat <= float(eps_pure) + 1e-9
        and approx_res.passed
    )
    _verdict(
        8,
        "oracle privacy at d=1: pure within e^eps, approx within (eps, (e^eps+1)gamma+delta)",
        ok,
        f"(pure eps_hat={pure_res.epsilon_hat:.6f} vs {float(eps_pure):.6f}, "
        f"approx slack={approx_res.delta_slack:.2e} vs envelope={float(envelope):.4f})",
    )


def test_criterion_09_sampler_marginals():
    """Gaussian and Laplace marginals match truncated-normalization oracles."""
    from reference import GaussParam, discrete_gaussian, discrete_laplace

    n = 100_000
    # Integer Gaussian, sigma^2 = 4: oracle by normalization over |x| <= 40.
    gauss = GaussParam(4)
    tape = BitTape(seed=11_300)
    hist_g = Counter(discrete_gaussian(tape, gauss) for _ in range(n))
    support = range(-40, 41)
    z = sum(math.exp(-x * x / 8) for x in support)
    expected = {x: math.exp(-x * x / 8) / z for x in support}
    obs, exp = [], []
    rest_o, rest_e = 0.0, 0.0
    for x in support:
        e = expected[x] * n
        o = hist_g.get(x, 0)
        if e < 5.0:
            rest_o, rest_e = rest_o + o, rest_e + e
        else:
            obs.append(o)
            exp.append(e)
    obs.append(rest_o + sum(c for k, c in hist_g.items() if abs(k) > 40))
    exp.append(rest_e)
    exp_total = sum(exp)
    exp = [e * sum(obs) / exp_total for e in exp]
    _, p_gauss = stats.chisquare(obs, exp)
    tail_g = sum(c for k, c in hist_g.items() if k >= 6) / n
    gauss_bound = math.exp(-36 / 8)
    # Integer Laplace, t = 3: oracle from the closed-form pmf.
    scale = Fraction(3)
    tape = BitTape(seed=11_301)
    hist_l = Counter(discrete_laplace(tape, scale) for _ in range(n))
    c = (math.exp(1 / 3) - 1) / (math.exp(1 / 3) + 1)
    lap_expected = {x: c * math.exp(-abs(x) / 3) for x in range(-60, 61)}
    obs_l, exp_l = [], []
    rest_o, rest_e = 0.0, 0.0
    for x in sorted(lap_expected):
        e = lap_expected[x] * n
        o = hist_l.get(x, 0)
        if e < 5.0:
            rest_o, rest_e = rest_o + o, rest_e + e
        else:
            obs_l.append(o)
            exp_l.append(e)
    obs_l.append(rest_o + sum(cnt for k, cnt in hist_l.items() if abs(k) > 60))
    exp_l.append(rest_e)
    total = sum(exp_l)
    exp_l = [e * sum(obs_l) / total for e in exp_l]
    _, p_lap = stats.chisquare(obs_l, exp_l)
    # Laplace tail identity at t = 1 (scale 1/eps with eps = 1), m = 3.
    tape = BitTape(seed=11_302)
    scale1 = Fraction(1)
    hist1 = Counter(discrete_laplace(tape, scale1) for _ in range(n))
    tail_l = sum(cnt for k, cnt in hist1.items() if k >= 3) / n
    tail_expected = math.exp(-2) / (math.e + 1)
    tail_sigma = math.sqrt(tail_expected * (1 - tail_expected) / n)
    ok = (
        p_gauss >= 0.001
        and p_lap >= 0.001
        and tail_g <= gauss_bound + 3 * math.sqrt(gauss_bound / n)
        and abs(tail_l - tail_expected) <= 4 * tail_sigma
    )
    _verdict(
        9,
        "sampler marginals vs truncated-normalization oracles + tail bounds",
        ok,
        f"(gauss p={p_gauss:.4f}, lap p={p_lap:.4f}, gauss tail {tail_g:.4f}<="
        f"{gauss_bound:.4f}+slack, lap tail {tail_l:.4f}~{tail_expected:.4f})",
    )


def test_criterion_10_determinism(tmp_path):
    """Fixed seed reproduces values and bit counts exactly."""
    counts = CountVector(d=3, n=30, sums=(4, 15, 29))
    params = approx_params_from_sigma(3, 4, Fraction(2), Fraction(1, 1024))
    res_a = mech_approx_efficient(counts, params, BitTape(seed=777))
    res_b = mech_approx_efficient(counts, params, BitTape(seed=777))
    direct_ok = (
        res_a.values == res_b.values
        and res_a.report.bits_total == res_b.report.bits_total
        and res_a.report.bits_by_category == res_b.report.bits_by_category
    )
    data = tmp_path / "d.csv"
    data.write_text("a,b\n1,0\n1,1\n0,1\n1,1\n", encoding="utf-8")
    config = RunConfig("pure", Fraction(1, 8), None, 2, 424242, str(data), None)
    code1, rep1 = run(config)
    code2, rep2 = run(config)
    cli_ok = (
        code1 == code2 == 0
        and rep1["values"] == rep2["values"]
        and rep1["randomness"] == rep2["randomness"]
    )
    _verdict(
        10,
        "determinism: fixed seed reproduces values and bit counts",
        direct_ok and cli_ok,
        f"(mech bits={res_a.report.bits_total}, cli bits={rep1['randomness']['bits_total']})",
    )
