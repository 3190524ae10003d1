"""The law of approx releases at scale: many boundary coordinates, drawn in runs.

Run drawing couples the cells of a release through the uniforms its
``locate`` draws share, so a coupling defect shows only across coordinates
and only at scale. These audits release d = 1 024 counts at a forced shift,
nearly all of them on a boundary, and compare what they see with the exact
law: every coordinate independently in its home cell or, with probability
p_i from ``audit_harness._shift_laws``, in the cell across its edge.

- Each coordinate's cell against its own two-cell law.
- Disjoint adjacent pairs of the queue against the product of their laws,
  and the two ends of disjoint triples among releases whose middle
  coordinate departs, so that the pair straddles a departure.
- Where the first coordinate departs in a long run of small p_i, against
  P[L >= j] = prod_{i < j} (1 - p_i); and how long every later run stays,
  given where it starts, through a randomized probability integral
  transform, which is uniform when each run follows its law.

Two more samples release d = 1 024 counts whose cells have more than two
outcomes, each checked against the exact law of every coordinate
(``_shift_laws``) as one pooled chi-square, and in disjoint adjacent pairs
against the product of the two laws:

- pure mode at a small m, where about one coordinate in seven is a tail
  member and most of the rest are on a boundary, so the tail-set draw, the
  tail cells and the runs of body cells all share a release;
- approx mode at s = 1, where most windows have two edges.
"""

import random
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

from frugaldp.approx_mech import ApproxParams, mech_approx_efficient
from frugaldp.audit_harness import _approx_noise, _pure_noise, _shift_laws
from frugaldp.bit_tape import BitTape
from frugaldp.pure_mech import PureParams, mech_pure_efficient
from frugaldp.release import CountVector

D, S, SIGMA_SQ, R = 1024, 2, Fraction(9), 16
P_MIN = 1e-4


def _departure_probs(params):
    """p(k) for each key k of a boundary coordinate, 1 - r < k < r: the mass across an edge k away."""
    noise = _approx_noise(params, 64)
    unit = params.r
    keys = range(2 - unit, unit)
    # Unit r and the shift forced to r: count (s - 1) r - k puts the edge s r at key k.
    sums = [(S - 1) * unit - k for k in keys]
    laws, scale = _shift_laws(sums, params, noise, 64)
    probs = {}
    for k, c, law in zip(keys, sums, laws[0]):  # the laws at shift r
        home = (c + unit) // params.grid * params.grid
        (lo, hi), = [iv for cell, iv in law.items() if cell != home]
        probs[k] = (lo + hi) / 2 ** (scale + 1)
    return probs


def _release_sample(keys, n, seed):
    """Departure flags of n releases of the counts with these keys (None: a silent count), and each p_i."""
    params = ApproxParams(D, S, SIGMA_SQ, R)
    unit = params.r
    probs = _departure_probs(params)
    sums = tuple(0 if k is None else (S - 1) * unit - k for k in keys)
    homes = np.array([(c + unit) // params.grid * params.grid for c in sums])
    queue = np.array([i for i, k in enumerate(keys) if k is not None])
    counts = CountVector(D, 4 * unit * S, sums)
    words = BitTape(seed=seed)
    flags = np.empty((n, len(queue)), dtype=bool)
    for row in range(n):
        result = mech_approx_efficient(counts, params, BitTape(seed=words.next_bits(64)), unit)
        assert list(result.report.boundary_coordinates) == queue.tolist()
        flags[row] = np.array(result.values)[queue] != homes[queue]
    return flags, np.array([probs[keys[i]] for i in queue])


def _keys(rng, chosen):
    """D keys drawn from ``chosen``, one count in 16 silent."""
    return [None if i % 16 == 15 else rng.choice(chosen) for i in range(D)]


@pytest.fixture(scope="module")
def probs():
    return _departure_probs(ApproxParams(D, S, SIGMA_SQ, R))


@pytest.fixture(scope="module")
def busy(probs):
    """Keys with p in [0.2, 0.5]: runs of a few coordinates, many departures per release."""
    chosen = [k for k, p in probs.items() if 0.2 <= p <= 0.5]
    assert len(chosen) >= 4 and min(chosen) <= 0 < max(chosen)  # homes both below and above
    return _release_sample(_keys(random.Random(1), chosen), 2000, 2)


@pytest.fixture(scope="module")
def quiet(probs):
    """Keys with p in [0.003, 0.03]: runs of dozens of coordinates."""
    chosen = [k for k, p in probs.items() if 0.003 <= p <= 0.03]
    assert len(chosen) >= 4 and min(chosen) <= 0 < max(chosen)
    return _release_sample(_keys(random.Random(3), chosen), 2000, 4)


def _cell_chi_square(observed, expected):
    return float(((observed - expected) ** 2 / expected).sum())


@pytest.mark.parametrize("sample", ["busy", "quiet"])
def test_each_cell_follows_its_law(sample, request):
    flags, p = request.getfixturevalue(sample)
    n = len(flags)
    departed = flags.sum(axis=0)
    chi = float(((departed - n * p) ** 2 / (n * p * (1 - p))).sum())
    assert stats.chi2.sf(chi, len(p)) >= P_MIN


def _pair_statistic(a, b, pa, pb):
    """Pearson statistic of the 2 x 2 tables of columns a, b against the products of their laws."""
    chi = 0.0
    for x in (False, True):
        for y in (False, True):
            observed = ((a == x) & (b == y)).sum(axis=0)
            expected = len(a) * np.where(x, pa, 1 - pa) * np.where(y, pb, 1 - pb)
            chi += _cell_chi_square(observed, expected)
    return chi


def test_adjacent_cells_are_independent(busy):
    flags, p = busy
    for first in (0, 1):  # pairs (0, 1), (2, 3), ... and (1, 2), (3, 4), ...: disjoint within each set
        stop = first + (flags.shape[1] - first) // 2 * 2
        a, b = flags[:, first:stop:2], flags[:, first + 1 : stop : 2]
        chi = _pair_statistic(a, b, p[first:stop:2], p[first + 1 : stop : 2])
        assert stats.chi2.sf(chi, 3 * a.shape[1]) >= P_MIN


def test_cells_either_side_of_a_departure_are_independent(busy):
    # Given that the middle of a triple departs, its ends lie in different
    # runs; under the exact law they stay independent, with their own laws.
    flags, p = busy
    chi = dof = 0
    for t in range(0, flags.shape[1] - 2, 3):
        rows = flags[flags[:, t + 1], :]
        chi += _pair_statistic(rows[:, [t]], rows[:, [t + 2]], p[[t]], p[[t + 2]])
        dof += 3
    assert stats.chi2.sf(chi, dof) >= P_MIN


def _binned_chi_square(values, probs, bins):
    """Chi-square p-value of integer outcomes against their law, over bins of about equal mass."""
    edges, mass, acc = [], [], 0.0
    for j, q in enumerate(probs):
        acc += q
        if acc >= 1 / bins or j == len(probs) - 1:
            edges.append(j + 1)
            mass.append(acc)
            acc = 0.0
    observed = np.histogram(values, bins=[0, *edges])[0]
    expected = len(values) * np.array(mass)
    return stats.chi2.sf(_cell_chi_square(observed, expected), len(edges) - 1)


def test_runs_depart_at_the_product_law(quiet):
    flags, p = quiet
    n, m = flags.shape
    # stay[j] = prod_{i < j} (1 - p_i), the chance that the first j stay home.
    stay = np.concatenate([[1.0], np.cumprod(1 - p)])
    first = np.where(flags.any(axis=1), flags.argmax(axis=1), m)
    law = np.append(stay[:-1] - stay[1:], stay[-1])  # P[L = j], j = 0..m
    assert first.mean() > 20  # long runs
    assert _binned_chi_square(first, law, 20) >= P_MIN
    # Every later run, from f + 1 after a departure at f: its length G stays
    # below j with chance 1 - stay[f + 1 + j] / stay[f + 1].
    rng = random.Random(5)
    pit = []
    for row in flags:
        departures = np.flatnonzero(row).tolist()
        for f, g in zip(departures, departures[1:] + [m]):
            start = stay[f + 1]
            above = stay[g] / start  # P[G >= g - f - 1]
            below = stay[g + 1] / start if g < m else 0.0
            pit.append(1 - above + rng.random() * (above - below))
    assert len(pit) > 5 * n  # about ten departures per release
    observed = np.histogram(pit, bins=20, range=(0, 1))[0]
    assert stats.chisquare(observed).pvalue >= P_MIN


# ---------------------------------------------------------------------------
# Cells of many outcomes: pure mode with frequent tails, approx mode at s = 1
# ---------------------------------------------------------------------------


def _exact_sample(params, release, n, seed):
    """Released values of n releases of D counts at the shift forced to the unit, and each coordinate's law.

    A law maps each cell to its probability at that shift, from ``_shift_laws``.
    """
    rng = random.Random(seed)
    unit = params.grid // params.s
    sums = tuple(rng.randrange(4 * params.grid) for _ in range(D))
    if isinstance(params, PureParams):
        noise = _pure_noise(params, Fraction(1, 1 << 40), 64)
    else:
        noise = _approx_noise(params, 64)
    laws, scale = _shift_laws(sums, params, noise, 64)
    laws = [{g: (lo + hi) / 2 ** (scale + 1) for g, (lo, hi) in law.items()} for law in laws[0]]
    counts = CountVector(D, 4 * params.grid, sums)
    words = BitTape(seed=seed)
    values = np.array([release(counts, params, BitTape(seed=words.next_bits(64)), unit) for _ in range(n)])
    return values, laws


@pytest.fixture(scope="module")
def tails():
    """Pure mode, t = 8 and m = 16: p about 0.14, so about 150 tail members and 800 boundary cells a release."""
    params = PureParams(D, 2, Fraction(D, 8), 16)
    return _exact_sample(params, lambda *args: mech_pure_efficient(*args)[0].values, 800, 6)


@pytest.fixture(scope="module")
def windows():
    """Approx mode at s = 1 and r = 2 sigma: the grid is r, so most windows hold two edges, both within reach."""
    params = ApproxParams(D, 1, SIGMA_SQ, 6)
    return _exact_sample(params, lambda *args: mech_approx_efficient(*args).values, 800, 8)


def _bins(law, n):
    """Chi-square bins of one law: each cell expected at least 5 times in n alone, the rest pooled.

    Returns the bin of every cell and the probability of every bin; a rest
    expected fewer than 5 times joins the least likely bin kept.
    """
    cells = sorted(law, key=law.get, reverse=True)
    kept = [g for g in cells if n * law[g] >= 5] or cells[:1]
    of = {g: i for i, g in enumerate(kept)}
    probs = [law[g] for g in kept]
    rest = max(0.0, 1 - sum(probs))
    pooled = len(kept) if n * rest >= 5 else len(kept) - 1
    if pooled == len(kept):
        probs.append(rest)
    else:
        probs[pooled] += rest
    return of, pooled, np.array(probs)


@pytest.mark.parametrize("sample", ["tails", "windows"])
def test_every_cell_follows_its_exact_law(sample, request):
    values, laws = request.getfixturevalue(sample)
    n = len(values)
    chi = dof = 0
    for column, law in zip(values.T, laws):
        of, pooled, probs = _bins(law, n)
        observed = np.bincount([of.get(v, pooled) for v in column.tolist()], minlength=len(probs))
        chi += _cell_chi_square(observed, n * probs)
        dof += len(probs) - 1
    assert dof > D  # most coordinates have three cells or more
    assert stats.chi2.sf(chi, dof) >= P_MIN


def _median_split(law):
    """The cell at which a coordinate's law first reaches 1/2 from below, and the mass above it."""
    acc = 0.0
    for g in sorted(law):
        acc += law[g]
        if acc >= 0.5:
            return g, 1 - acc


@pytest.mark.parametrize("sample", ["tails", "windows"])
def test_adjacent_cells_follow_the_product_law(sample, request):
    # Each coordinate's value is split at its median cell, and coordinates
    # whose split is nearly certain are left out; disjoint pairs of
    # neighbours among the rest are tested against the products of their laws.
    values, laws = request.getfixturevalue(sample)
    splits = [_median_split(law) for law in laws]
    usable = [i for i, (_, above) in enumerate(splits) if 0.05 <= above <= 0.95]
    assert len(usable) > D // 2
    flags = np.array([values[:, i] > splits[i][0] for i in usable]).T
    above = np.array([splits[i][1] for i in usable])
    for first in (0, 1):
        stop = first + (len(usable) - first) // 2 * 2
        a, b = flags[:, first:stop:2], flags[:, first + 1 : stop : 2]
        chi = _pair_statistic(a, b, above[first:stop:2], above[first + 1 : stop : 2])
        assert stats.chi2.sf(chi, 3 * a.shape[1]) >= P_MIN
