"""PowerAlgebra._q_codes against the np.where chain it replaced, and the memory it needs.

The oracle below is the earlier kernel, kept verbatim: each point picks its branch digit
with a chain of np.where that broadcasts every branch to the full result.  The kernel
under test sums each branch's selected digits at the shape of the scrutinee and that
branch alone.  Both must give the same value, shape and dtype on ints, full arrays and
open grids of any index dtype, and a full power's q table must equal the sum of the
chain over the branches, split by hand.  Element-level PowerAlgebra.q, which shares no
code with either kernel, checks seeded entries.
"""

import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import nbalab
from nbalab.core import PowerAlgebra, power_algebra


def oracle_q_codes(alg, s, branches):
    """The np.where chain of the earlier PowerAlgebra._q_codes, verbatim."""
    s, branches = np.asarray(s, np.int64), [np.asarray(b, np.int64) for b in branches]
    m, n = alg.points, alg.n
    out = np.zeros(np.broadcast_shapes(np.shape(s), *map(np.shape, branches)), np.int64)
    for p in range(m):
        shift = n ** (m - 1 - p)
        sel = s // shift % n
        pick = branches[-1] // shift % n
        for k in range(n - 2, -1, -1):
            pick = np.where(sel == k, branches[k] // shift % n, pick)
        out += pick * shift
    return out


def oracle_q_table(alg):
    """The earlier q_table of a full power: one chain call per branch, the others 0."""
    axes = [np.arange(alg.size).reshape((-1,) + (1,) * (alg.n - a)) for a in range(alg.n + 1)]
    return sum(oracle_q_codes(alg, axes[0], [axes[k + 1] if j == k else 0 for j in range(alg.n)])
               for k in range(alg.n))


def random_call(rng):
    """(alg, s, branches): a power n^m (n = 2..7, m = 0..6) and n + 1 arguments, each a
    Python int, an array of one common shape of 0..3 axes, or its projection onto some of
    those axes (an open grid), in an int64, int32 or uint16 array that holds its values."""
    n = rng.randint(2, 7)
    m = rng.randint(0, 6)
    alg = power_algebra(n, m)
    shape = tuple(rng.randint(1, 6) for _ in range(rng.randint(0, 3)))
    dtypes = [dt for dt in (np.int64, np.int32, np.uint16) if alg.size - 1 <= np.iinfo(dt).max]
    nprng = np.random.default_rng(rng.getrandbits(32))
    args = []
    for _ in range(n + 1):
        form = rng.choice(("int", "full", "grid"))
        if form == "int":
            args.append(rng.randrange(alg.size))
            continue
        sub = shape if form == "full" else tuple(d if rng.random() < 0.5 else 1 for d in shape)
        args.append(nprng.integers(0, alg.size, sub).astype(rng.choice(dtypes)))
    return alg, args[0], args[1:]


def test_the_kernel_matches_the_chain_on_seeded_calls():
    rng = random.Random(20)
    seen = set()
    for _ in range(2000):
        alg, s, branches = random_call(rng)
        got, want = alg._q_codes(s, branches), oracle_q_codes(alg, s, branches)
        assert (type(got), got.shape, got.dtype) == (type(want), want.shape, want.dtype)
        assert np.array_equal(got, want), (alg, s, branches)
        seen.add((alg.n, alg.points))
    assert {n for n, _ in seen} == set(range(2, 8)) and {m for _, m in seen} == set(range(7))


def test_narrow_dtypes_with_large_codes_do_not_overflow():
    alg = power_algebra(2, 16)  # codes up to 65535, the top of uint16
    s = np.arange(65536 - 64, 65536, dtype=np.uint16)
    branches = [s[::-1], s[::-1][:, None]]
    assert np.array_equal(alg._q_codes(s, branches), oracle_q_codes(alg, s, branches))


@pytest.mark.parametrize("n,m", [(2, 6), (3, 3), (4, 2), (2, 7)])
def test_q_table_is_one_kernel_call_and_matches_the_hand_split_sum(n, m, monkeypatch):
    alg = PowerAlgebra(n, m)
    calls, kernel = [], PowerAlgebra._q_codes
    monkeypatch.setattr(PowerAlgebra, "_q_codes",
                        lambda self, s, bs: calls.append(len(bs)) or kernel(self, s, bs))
    tab = alg.q_table()
    assert calls == [n]
    want = oracle_q_table(alg)
    assert (tab.shape, tab.dtype) == (want.shape, want.dtype) and np.array_equal(tab, want)


def test_seeded_entries_match_element_level_q():
    rng = random.Random(20)
    ladder = [PowerAlgebra(n, m) for n, m in [(3, 2), (2, 5), (4, 2), (3, 3), (2, 6), (2, 7)]]
    for _ in range(50):
        alg = rng.choice(ladder)
        idx = [rng.randrange(alg.size) for _ in range(alg.n + 1)]
        els = [alg.elements()[i] for i in idx]
        want = alg.index(alg.q(els[0], els[1:]))
        assert int(alg._q_codes(idx[0], idx[1:])) == want
        assert int(alg.q_table()[tuple(idx)]) == want


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM")
def test_partial_fn_algebra_5_peaks_under_300_mb():
    """The 3^5 skew reduct's t table is 109 MB; building it needs one result plus partials.

    The child reports VmHWM, the peak of its own address space: ru_maxrss would carry
    over the peak of the test process it was started from.
    """
    code = textwrap.dedent("""
        from nbalab import representation
        alg = representation.partial_fn_algebra(5)
        with open("/proc/self/status") as fh:
            peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
        print(alg.size, peak_kb // 1024)
    """)
    src = os.path.dirname(os.path.dirname(nbalab.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    size, peak_mb = proc.stdout.split()
    assert int(size) == 3**5, proc.stderr
    assert int(peak_mb) < 300
