"""The implementation's law, certified by enumerating its bit tree.

A release on a seeded tape is a discrete distribution generating tree (Knuth
and Yao 1976): each leaf is a bit string the release reads to the end, and
has mass 2**-len. :func:`enumerate_release` replays the real release on a
tape that serves a fixed bit prefix and raises once the prefix runs out, so
a prefix that runs out is split in two, shortest first, until the prefixes
still open hold at most ``eta`` of the mass. Every finished leaf gives an
outcome and its exact bit count, so

- each outcome's enumerated mass is checked against the exact oracle's
  enclosures (``audit_harness``): it may not exceed the oracle's upper
  bound plus its deficit, and the oracle's lower bound may not exceed it
  plus the open mass;
- the expected bits of a release are exact up to the open mass.

The pure audit-desk release (d = 3, s = 2, eps = 1/4, counts 17, 50, 93) is
checked with the shift drawn and at each forced shift, and with a silent
coordinate; a pure release at s = 6 whose queue ends in a block of one
boundary key, with the shift drawn and at each forced shift; approx
releases at desk scale, with d <= 3 and s in 1..4, with the shift drawn and
at each forced shift, one whose queues end in blocks behind keys drawn
exactly, also at 8-bit levels, where a block's coarse key refines, and one
at d = 6 where a middle block of two keys usually passes its coarse key and
a later block departs, also with a 6-bit carry horizon, where a failed
coarse key's carry starts u afresh; and two approx desk releases on one
stream, at the shifts r and 2 r, against the product of their forced laws.

The same enumeration on the desk and its replace-one neighbour (18, 50, 93)
shows why the command line publishes the values and no report field: the
values keep the guarantee, and the values with a release's boundary count
(approx) or its bit count (pure) do not.
"""

from collections import Counter, deque
from fractions import Fraction

import pytest

from frugaldp import core_samplers
from frugaldp import release as release_module
from frugaldp.approx_mech import derive_approx_params, mech_approx_efficient
from frugaldp.audit_harness import _approx_noise, _joint_dist, _pure_noise, _shift_laws, oracle_joint_dist
from frugaldp.bit_tape import BitTape
from frugaldp.core_samplers import Stream
from frugaldp.precise_math import exp_pos
from frugaldp.pure_mech import derive_pure_params, mech_pure_efficient
from frugaldp.release import CountVector, draw_runs, shift_and_round

ETA = Fraction(1, 10**9)


class _Exhausted(Exception):
    """The release asked for a bit past the prefix."""


class PrefixTape(BitTape):
    """A tape that serves the ``n`` bits of ``bits``, most significant first, and then raises."""

    def __init__(self, bits: int, n: int):
        super().__init__(0)
        self._word, self._avail, self._fill = bits, n, self._exhausted

    @staticmethod
    def _exhausted(k: int):
        raise _Exhausted


def enumerate_release(release, eta=ETA) -> tuple[dict, Fraction, Fraction, int]:
    """The outcomes of ``release(tape)`` with their exact masses, the open mass, the expected bits and the re-runs.

    Prefixes are run shortest first; a finished run read exactly its prefix,
    since a shorter one would have finished its parent. The expected bits
    count the finished leaves only.
    """
    outcomes: dict = {}
    bits = Fraction(0)
    open_mass = Fraction(1)
    runs = 0
    pending = deque([(0, 0)])
    while open_mass > eta:
        prefix, n = pending.popleft()
        runs += 1
        tape = PrefixTape(prefix, n)
        try:
            outcome = release(tape)
        except _Exhausted:
            pending.append((prefix << 1, n + 1))
            pending.append((prefix << 1 | 1, n + 1))
            continue
        assert tape.bits_consumed == n
        mass = Fraction(1, 1 << n)
        outcomes[outcome] = outcomes.get(outcome, 0) + mass
        bits += n * mass
        open_mass -= mass
    return outcomes, open_mass, bits, runs


def certified_failures(outcomes: dict, open_mass: Fraction, oracle) -> list:
    """The outcomes whose enumerated mass the oracle's enclosures exclude."""
    scale = Fraction(1, 1 << oracle.w)
    failures = []
    for outcome in set(outcomes) | set(oracle.mass):
        mass = outcomes.get(outcome, 0)
        lo, hi = oracle.mass.get(outcome, (0, 0))
        if mass > hi * scale + oracle.deficit or lo * scale > mass + open_mass:
            failures.append(outcome)
    return failures


def _forced_oracle(counts, params, noise, w: int, v: int):
    """The exact joint law at the forced shift v times the unit, at 2**-w."""
    laws, scale = _shift_laws(counts.sums, params, noise, w)
    return _joint_dist([laws[v - 1]], scale, 1, w, noise[2] * counts.d)


_DESK = CountVector(3, 100, (17, 50, 93))


def _pure_desk():
    return derive_pure_params(Fraction(1, 4), 3, 2)


def _pure_release(params, omega=None):
    return lambda tape: mech_pure_efficient(_DESK, params, tape, omega)[0].values


@pytest.fixture(scope="module")
def desk_drawn():
    params = _pure_desk()
    return params, enumerate_release(_pure_release(params))


def test_pure_desk_with_a_drawn_shift_is_certified(desk_drawn):
    params, (outcomes, open_mass, _, _) = desk_drawn
    assert open_mass <= ETA
    assert certified_failures(outcomes, open_mass, oracle_joint_dist(_DESK, params)) == []


def test_pure_desk_expected_bits_are_exact(desk_drawn):
    # Exact up to 1e-9 of open mass: the release's expected bits, the shift's one bit included.
    # A tail-set draw ahead of the cells read 7.150 bits.
    _, (_, _, bits, _) = desk_drawn
    assert abs(float(bits) - 5.649) <= 0.01


@pytest.mark.parametrize("v", [1, 2])
def test_pure_desk_at_each_forced_shift_is_certified(v):
    params = _pure_desk()
    outcomes, open_mass, _, _ = enumerate_release(_pure_release(params, v * params.m))
    tol = Fraction(1, 10**12) / _DESK.d
    noise = _pure_noise(params, tol, 64)
    assert certified_failures(outcomes, open_mass, _forced_oracle(_DESK, params, noise, 64, v)) == []


def test_pure_desk_with_a_silent_coordinate_is_certified():
    # Count 0 at the shift m puts its centre m from both edges of its cell:
    # a silent coordinate, drawn last, behind the comparison with (1 - p(K))^1.
    params = _pure_desk()
    counts = CountVector(3, 100, (0, 50, 93))
    release = lambda tape: mech_pure_efficient(counts, params, tape, params.m)[0]
    assert release(BitTape(seed=1)).report.boundary_coordinates == (1, 2)
    outcomes, open_mass, _, _ = enumerate_release(lambda tape: release(tape).values)
    noise = _pure_noise(params, Fraction(1, 10**12) / counts.d, 64)
    assert certified_failures(outcomes, open_mass, _forced_oracle(counts, params, noise, 64, 1)) == []


# Per forced shift v = 1..6: the exact expected bits when only silent
# coordinates were behind one comparison, with (1 - p)^j, p = P[|eta| >= m];
# blocks of the keys from 44 on, behind (1 - p(a))^j, may cost at most 0.05
# more. With the shift drawn (None): the exact expected bits, plus the same
# 0.05.
_PURE_QUIET = {1: 2.212, 2: 2.969, 3: 2.075, 4: 2.063, 5: 2.063, 6: 2.065, None: 4.829}


@pytest.mark.parametrize("v", [None, *range(1, 7)])
def test_pure_desk_with_a_quiet_boundary_key_is_certified(v, monkeypatch):
    # d = 3, eps = 1/4, s = 6: m = 55 on the grid 330, and K = 51 < m. At
    # the shift m the counts 224, 240, 250 key their edges 51, 35 and 25 from
    # the centre: two keys drawn exactly and one at exactly K, a block behind
    # the comparison with 1 - p(51). At 3m..6m all three are silent, a block
    # behind (1 - p(m))^3, silent keys counting as keyed at the half-width.
    # A drawn shift is one locate over (6 - j) / 6, whose leftover carries
    # into the cells: a few thousand re-runs.
    params = derive_pure_params(Fraction(1, 4), 3, 6)
    assert (params.m, params.cells.quiet, params.grid) == (55, 51, 330)
    counts = CountVector(3, 400, (224, 240, 250))
    queues = []

    def spy(stream, cells, grid, queued, keys, values, blocks=()):
        queues.append((list(keys), blocks))
        return draw_runs(stream, cells, grid, queued, keys, values, blocks)

    monkeypatch.setattr(release_module, "draw_runs", spy)
    release = lambda tape: mech_pure_efficient(counts, params, tape, v and v * params.m)[0].values
    release(BitTape(seed=1))
    if v == 1:
        assert queues == [([35, 25, 51], [(2, 51)])]
    outcomes, open_mass, bits, _ = enumerate_release(release)
    if v is None:
        oracle = oracle_joint_dist(counts, params)
    else:
        oracle = _forced_oracle(counts, params, _pure_noise(params, Fraction(1, 10**12) / counts.d, 64), 64, v)
    assert certified_failures(outcomes, open_mass, oracle) == []
    assert bits <= _PURE_QUIET[v] + 0.05


# (d, s): the exact expected bits with the shift drawn when every boundary
# key is drawn in index order, with no quiet tail; queuing the quiet keys
# last may cost at most 0.05 more. At s = 3 the shift's leftover carries
# into the cells; at d = 1 a 3-way shift alone expects 3 bits by locate.
_APPROX_DESK = {
    (1, 1): 2.0000, (1, 2): 2.0000, (1, 3): 3.5000, (1, 4): 2.5000,
    (2, 1): 2.8536, (2, 2): 3.3916, (2, 3): 3.9687, (2, 4): 4.0000,
    (3, 1): 4.0156, (3, 2): 3.9687, (3, 3): 4.0937, (3, 4): 3.6406,
}


def _certify_approx(counts, params):
    """Certify the approx release of ``counts`` with the shift drawn and at each forced shift; its expected bits."""
    drawn = enumerate_release(lambda tape: mech_approx_efficient(counts, params, tape).values)
    assert certified_failures(drawn[0], drawn[1], oracle_joint_dist(counts, params)) == []
    noise = _approx_noise(params, 64)
    for v in range(1, params.s + 1):
        release = lambda tape: mech_approx_efficient(counts, params, tape, v * params.r).values
        outcomes, open_mass, _, _ = enumerate_release(release)
        assert certified_failures(outcomes, open_mass, _forced_oracle(counts, params, noise, 64, v)) == []
    return drawn[2]


@pytest.mark.parametrize("d,s", _APPROX_DESK)
def test_approx_desk_is_certified(d, s):
    # eps = 1, delta = 1/4: r = 9, 13 and 17 at d = 1, 2, 3; counts a few units either side of grid edges.
    params = derive_approx_params(Fraction(1), Fraction(1, 4), d, s)
    bits = _certify_approx(CountVector(d, 100, (17, 50, 93)[:d]), params)
    assert bits <= _APPROX_DESK[d, s] + 0.05


def test_approx_desk_with_quiet_keys_is_certified(monkeypatch):
    # d = 3, s = 2: r = 17 and K = 13, so p(k') <= 2**-7 from key 13 on;
    # the bins of k' = 12 and of k' in [13, 26) fill blocks, and keys below
    # 12 are drawn exactly. At the shift r the counts 29, 55, 79 key their
    # edges 13, 5 and 6 from the centre: two exact keys, then a block behind
    # 1 - p(13). At 2 r they key 5, 13 and 12: one exact key, then blocks
    # behind 1 - p(12) and 1 - p(13).
    params = derive_approx_params(Fraction(1), Fraction(1, 4), 3, 2)
    assert (params.r, params.cells.quiet) == (17, 13)
    counts = CountVector(3, 100, (29, 55, 79))
    queues = []

    def spy(stream, cells, grid, queued, keys, values, blocks=()):
        queues.append((len(keys), blocks))
        return draw_runs(stream, cells, grid, queued, keys, values, blocks)

    monkeypatch.setattr(release_module, "draw_runs", spy)
    for v in (1, 2):
        mech_approx_efficient(counts, params, BitTape(seed=1), v * params.r)
    assert queues == [(3, [(2, 13)]), (3, [(1, 12), (2, 13)])]
    # 3.594 bits with every key drawn in index order.
    assert _certify_approx(counts, params) <= 3.594 + 0.05


def test_approx_desk_with_two_blocks_is_certified(monkeypatch):
    # d = 6, s = 2: r = 25 and K = 20. The bin of k' in [18, 20) fills blocks
    # of up to 19 keys, the one of k' in [20, 40) blocks of up to 47, and
    # keys below 18 are drawn exactly. At either shift three keys are drawn
    # exactly, then a middle block of two keys (k' = 18 and 19, keys -17 and
    # -18) behind (1 - p(18))^2, and a later block of one, keyed -21 at r
    # (k' = 22, behind 1 - p(21), from |k|) and -20 at 2 r (k' = 21, behind
    # 1 - p(20), its bin's least key). The middle block usually passes its
    # coarse key, and the later one departs, to the cell below.
    params = derive_approx_params(Fraction(1), Fraction(1, 4), 6, 2)
    assert (params.r, params.cells.quiet) == (25, 20)
    counts = CountVector(6, 100, (17, 18, 20, 42, 43, 46))
    queues = []

    def spy(stream, cells, grid, queued, keys, values, blocks=()):
        queues.append((list(keys), blocks))
        return draw_runs(stream, cells, grid, queued, keys, values, blocks)

    monkeypatch.setattr(release_module, "draw_runs", spy)
    for v in (1, 2):
        mech_approx_efficient(counts, params, BitTape(seed=1), v * params.r)
    assert queues == [([8, 7, 5, -17, -18, -21], [(3, 18), (5, 21)]), ([8, 7, 4, -17, -18, -20], [(3, 18), (5, 20)])]
    monkeypatch.undo()
    _certify_approx(counts, params)
    outcomes, _, _, _ = enumerate_release(lambda tape: mech_approx_efficient(counts, params, tape, params.r).values)
    homes = tuple((c + params.r) // params.grid * params.grid for c in counts.sums)
    assert homes[:5] + (homes[5] - params.grid,) in outcomes


def test_a_coarse_carry_that_starts_afresh_is_certified(monkeypatch):
    # The d = 6 desk above with a carry horizon of 6 bits: u past a block's
    # coarse key, (1 - p(a))^n, leaves B below 2**-6 (B (1 - L) is about
    # 2**-7 after the middle block's 1 - (1 - p(18))^2 = 0.0126), so that
    # carry starts u afresh, and the block's keys are read at
    # (T_j - L) / (1 - L) on a fresh u, not from the B before the draw.
    # Records built from that B instead give dozens of certified failures.
    monkeypatch.setattr(core_samplers, "_CARRY_BITS", 6)
    params = derive_approx_params(Fraction(1), Fraction(1, 4), 6, 2)
    counts = CountVector(6, 100, (17, 18, 20, 42, 43, 46))
    restarts = Counter()
    locate = release_module.locate

    def spy(stream, bounds, keys, level0=None):
        count = locate(stream, bounds, keys, level0)
        if getattr(getattr(bounds, "func", None), "__name__", None) == "all_stay" and not count:
            restarts[not stream.history] += 1
        return count

    monkeypatch.setattr(release_module, "locate", spy)
    noise = _approx_noise(params, 64)
    for v in (1, 2):
        release = lambda tape: mech_approx_efficient(counts, params, tape, v * params.r).values
        outcomes, open_mass, _, _ = enumerate_release(release, Fraction(1, 10**6))
        assert certified_failures(outcomes, open_mass, _forced_oracle(counts, params, noise, 64, v)) == []
    assert restarts[True] > 0


def test_approx_blocks_with_16_bit_levels_are_certified(monkeypatch):
    # d = 4, s = 2 at levels of 16, 32, 64 and 128 bits: r = 20 and K = 16.
    # At the shift r the counts 15, 5, 6, 4 key their edges 5, 15, 14 and 16
    # from the centre: one key drawn exactly, a block of two behind
    # (1 - p(14))^2, and one of one behind 1 - p(16). Draws after a block's
    # coarse key refine, so A and B are rebuilt at finer levels across both
    # of its outcomes (core_samplers._narrow replays the coarse draw): u
    # below it, every key of the block home, and u past it.
    monkeypatch.setattr(core_samplers, "_LEVEL_START", 16)
    params = derive_approx_params(Fraction(1), Fraction(1, 4), 4, 2)
    assert (params.r, params.cells.quiet) == (20, 16)
    counts = CountVector(4, 100, (15, 5, 6, 4))
    rebuilt = Counter()
    narrow = core_samplers._narrow

    def spy(level, a_lo, a_hi, b_lo, b_hi, bounds, keys, count):
        if level and getattr(getattr(bounds, "func", None), "__name__", None) == "all_stay":
            rebuilt[count] += 1
        return narrow(level, a_lo, a_hi, b_lo, b_hi, bounds, keys, count)

    monkeypatch.setattr(core_samplers, "_narrow", spy)
    _certify_approx(counts, params)
    assert rebuilt[1] > 0 and rebuilt[0] > 0


def test_approx_quiet_desk_with_8_bit_levels_is_certified(monkeypatch):
    # The case above at levels of 8, 16, 32 and 64 bits: a queue whose u is
    # not certified against the coarse key at 8 bits refines it, to the
    # product before the tail times (1 - p(K))^tail at that level, which
    # 64-bit levels never need. K is 13 at 8 bits too.
    monkeypatch.setattr(core_samplers, "_LEVEL_START", 8)
    params = derive_approx_params(Fraction(1), Fraction(1, 4), 3, 2)
    assert (params.r, params.cells.quiet) == (17, 13)
    counts = CountVector(3, 100, (29, 55, 79))
    levels = set()
    all_stay = core_samplers.CellLaw.all_stay

    def spy(cells, a, j, level):
        levels.add(level)
        return all_stay(cells, a, j, level)

    monkeypatch.setattr(core_samplers.CellLaw, "all_stay", spy)
    _certify_approx(counts, params)
    assert levels == {0, 1, 2, 3}


def test_two_releases_on_one_stream_are_certified():
    # Two approx desk releases (d = 3, s = 2, counts 17, 50, 93) on one
    # Stream, at the shifts r and 2 r: the second draws on the u the first
    # carried on, so the six cells follow the product of the two forced laws
    # only if every draw of the first carried, its last too.
    params = derive_approx_params(Fraction(1), Fraction(1, 4), 3, 2)

    def release(tape):
        stream = Stream(tape)
        first = shift_and_round(tape, stream, _DESK, params.cells, params.r)[0].values
        return first + shift_and_round(tape, stream, _DESK, params.cells, 2 * params.r)[0].values

    outcomes, open_mass, _, _ = enumerate_release(release, Fraction(1, 10**6))
    laws, scale = _shift_laws(_DESK.sums, params, _approx_noise(params, 64), 64)
    oracle = _joint_dist([laws[0] + laws[1]], scale, 1, 64, Fraction(0))
    assert certified_failures(outcomes, open_mass, oracle) == []


def desk_neighbour_slacks(release, epsilon: Fraction) -> tuple[Fraction, Fraction]:
    """The slacks of the values alone and of (values, field) on ``_DESK`` and its neighbour (18, 50, 93).

    ``release(counts, tape)`` returns (values, field). A view's slack is the
    larger over both orders of P and Q, the view's enumerated laws on the two
    inputs, of sum over o of max(0, P(o) - e^eps (Q(o) + open mass of Q)),
    with e^eps at its upper enclosure: a lower bound on the delta that
    publishing the view needs at eps.
    """
    e_eps = Fraction(exp_pos(epsilon, 64)[1], 1 << 64)
    joint, values = [], []
    for counts in (_DESK, CountVector(3, 100, (18, 50, 93))):
        outcomes, open_mass, _, _ = enumerate_release(lambda tape: release(counts, tape))
        marginal = Counter()
        for (v, _), mass in outcomes.items():
            marginal[v] += mass
        joint.append((outcomes, open_mass))
        values.append((marginal, open_mass))

    def slack(laws):
        return max(
            sum(max(0, mass - e_eps * (q.get(o, 0) + q_open)) for o, mass in p.items())
            for (p, _), (q, q_open) in (laws, laws[::-1])
        )

    return slack(values), slack(joint)


def test_approx_values_with_the_boundary_count_need_more_than_delta():
    # eps = 1, delta = 1/4, s = 2: the values alone need 0.00024, the values
    # with how many coordinates drew their cell 0.49999999.
    params = derive_approx_params(Fraction(1), Fraction(1, 4), 3, 2)

    def release(counts, tape):
        result = mech_approx_efficient(counts, params, tape)
        return result.values, len(result.report.boundary_coordinates)

    values, with_count = desk_neighbour_slacks(release, params.epsilon)
    assert values <= params.delta < with_count


def test_pure_values_with_the_bit_count_need_a_delta():
    # eps = 1/4, s = 3: the values alone need no delta, the values with the
    # bits the release read 0.0316.
    params = derive_pure_params(Fraction(1, 4), 3, 3)

    def release(counts, tape):
        result = mech_pure_efficient(counts, params, tape)[0]
        return result.values, result.report.bits_total

    values, with_bits = desk_neighbour_slacks(release, params.epsilon)
    assert values == 0 < with_bits
