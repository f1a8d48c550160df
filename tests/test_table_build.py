"""The field tables and the Gauss table, built in the memory they keep.

Reference builds: the Good-Thomas table transformed as one whole grid and
scattered through a length-(q-1) index, the trace stored as a table over every
code, and the zech table as one whole-length gather.  The library's blocked
builds must reproduce them bit for bit, and tracemalloc pins what the field
keeps and what the field build and the table build peak at, per element.
tracemalloc does not see pocketfft's scratch; the installed-package CI step
bounds the whole-process peak at q = 16777213.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

from hgmk3.charsum import BLOCK, CharacterSystem
from hgmk3.ffield import factor, field_new


def reference_trace_table(f):
    """Tr over every code as an int32 table: Tr(x^j) is the power sum s_j of the roots of
    the modulus c (monic, low first), by Newton's identities
    s_j = -(j c[n-j] + sum_{i<j} c[n-i] s_{j-i}) with s_0 = n; the table over codes
    [0, p^j) extends to [0, p^(j+1)) with Tr(x^j)."""
    p, n, c = f.p, f.n, f.modulus
    s = [n % p]
    for j in range(1, n):
        s.append(-(j * c[n - j] + sum(c[n - i] * s[j - i] for i in range(1, j))) % p)
    trace = np.zeros(1, dtype=np.int64)
    for sj in s:
        trace = ((np.arange(p, dtype=np.int64)[:, None] * sj + trace) % p).ravel()
    return trace.astype(np.int32)


def _crt_grid(weights, ns, N):
    """int32 sum_i j_i * weights[i] mod N over the grid prod range(ns[i]), in C order."""
    idx = np.zeros(1, dtype=np.int32)
    for w, n in zip(weights, ns):
        axis = (np.arange(n, dtype=np.int64) * w % N).astype(np.int32)
        idx = np.add.outer(idx, axis).ravel()
        np.subtract(idx, N, out=idx, where=idx >= N)
    return idx


def _negation_index(ns):
    """Flat C-order position of (-j_1, ..., -j_r) for each position of (j_1, ..., j_r)."""
    idx = np.zeros(1, dtype=np.intp)
    for n in ns:
        idx = np.add.outer(idx * n, -np.arange(n) % n).ravel()
    return idx


def reference_good_thomas_table(f, twist, trace):
    """The split table with the whole half grid transformed by one `ifftn`, the conjugate
    half stored beside it, one `ifft` over axis 0 and one scatter into the output."""
    N = f.q - 1
    ns = [r**e for r, e in factor(N).items()]
    half = ns[0] // 2
    k = _crt_grid([N // n for n in ns], [half, *ns[1:]], N)
    codes = f.exp[k]
    if twist != 1:
        codes = f.mul_codes(codes, np.int32(twist))
    tr = trace[codes]
    flip = tr > f.p // 2
    np.subtract(f.p, tr, out=tr, where=flip)
    c = np.empty(N, dtype=complex)
    top = c[: N // 2].reshape(half, *ns[1:])
    np.multiply(2j * np.pi / f.p, tr.reshape(top.shape), out=top)
    np.exp(top, out=top)
    np.conjugate(top, out=top, where=flip.reshape(top.shape))
    np.fft.ifftn(top, axes=range(1, len(ns)), norm="forward", out=top)
    top = top.reshape(half, -1)
    bottom = c[N // 2 :].reshape(half, -1)
    np.take(top, _negation_index(ns[1:]), axis=1, out=bottom, mode="wrap")
    np.conjugate(bottom, out=bottom)
    grid = c.reshape(ns)
    np.fft.ifft(grid, axis=0, norm="forward", out=grid)
    idempotents = [N // n * pow(N // n, -1, n) % N for n in ns]
    gauss = np.empty(N, dtype=complex)
    gauss[_crt_grid(idempotents, ns, N)] = c
    return gauss


def reference_system(f, twist=1):
    """(gauss, residual) as CharacterSystem certifies the reference table."""
    gauss = reference_good_thomas_table(f, twist, reference_trace_table(f))
    dev = np.abs(np.abs(gauss) ** 2 - f.q)
    dev[0] = 0.0
    gauss[0] = -1.0
    return gauss, float(dev.max())


@pytest.mark.parametrize(
    "p,n,twist", [(65537, 1, 1), (1000003, 1, 1), (1000003, 1, 2), (3, 11, 1)],
    ids=["65537", "1000003", "1000003-twist2", "3^11"],
)
def test_table_is_the_whole_grid_build_bit_for_bit(p, n, twist):
    # 65536 = 2^16 is a single axis; 1000002 = 2 * 3 * 166667 has a line longer than a
    # block; 177146 = 2 * 23 * 3851 is an extension field
    f = field_new(p, n)
    cs = CharacterSystem(f, twist=twist)
    gauss, residual = reference_system(f, twist)
    assert np.array_equal(cs.gauss, gauss)
    assert cs.residual == residual


@pytest.mark.parametrize("p,n", [(3, 1), (7, 1), (3, 2), (5, 2), (7, 3), (3, 5), (3, 7), (11, 2), (3, 11)])
def test_trace_codes_is_the_stored_table(p, n):
    f = field_new(p, n)
    tr = f.trace_codes(np.arange(f.q))
    assert tr.dtype == np.int32
    assert np.array_equal(tr, reference_trace_table(f))


def _traced(build):
    """(result, traced bytes kept, traced peak) of build(), from a fresh trace."""
    tracemalloc.start()
    try:
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, kept, peak


def _tables(f):
    """{name: bytes} of the length-q arrays the field holds."""
    return {name: a.nbytes for name, a in vars(f).items() if isinstance(a, np.ndarray) and a.size >= f.q - 1}


def test_field_keeps_exp_dlog_and_zech_alone():
    f, kept, _ = _traced(lambda: field_new(1000003))
    q = f.q
    assert _tables(f) == {"exp": 4 * (q - 1), "dlog": 4 * q}
    assert kept < 8.5 * q
    # zech is built on its first read, a block at a time, and kept
    zech, added, peak = _traced(lambda: f.zech)
    assert f.zech is zech
    assert _tables(f) == {"exp": 4 * (q - 1), "dlog": 4 * q, "zech": 4 * (q - 1)}
    assert added < 4 * q + 1024
    assert peak <= 4 * q + 16 * BLOCK  # one block of int32 and bool temporaries


def eager_zech(f):
    """The zech table as one whole-length gather: adding 1 changes only the constant digit."""
    exp, p = f.exp, f.p
    return f.dlog[np.where(exp % p == p - 1, exp - (p - 1), exp + 1)]


@pytest.mark.parametrize(
    "p,n", [(3, 1), (7, 1), (3, 2), (5, 2), (7, 3), (3, 5), (3, 7), (11, 2), (3, 11), (65537, 1), (1000003, 1)],
)
def test_lazy_zech_is_the_eager_gather(p, n):
    # 3^11 and the two large primes span more than one block
    f = field_new(p, n)
    assert "zech" not in vars(f)
    assert f.zech.dtype == np.int32
    assert np.array_equal(f.zech, eager_zech(f))


def test_concurrent_first_reads_of_zech_agree():
    # threads that read the empty slot at once may each build the table; each gets all of it
    f = field_new(65537)  # two blocks, so a build can be switched out halfway
    expect = eager_zech(f)
    got = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=lambda: got.append(f.zech)) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 4 and all(np.array_equal(z, expect) for z in got)
    assert any(f.zech is z for z in got)


@pytest.mark.parametrize("p,n", [(1000003, 1), (3, 11)])
def test_field_build_peak_per_element(p, n):
    # exp and dlog (8 bytes per element) and one block of temporaries
    f, _, peak = _traced(lambda: field_new(p, n))
    assert peak / f.q <= 14.0


@pytest.mark.parametrize("p,n,bound", [(1000003, 1, 32.0), (3, 11, 37.1)])
def test_table_build_peak_per_element(p, n, bound):
    # bytes per element above the field: the 16-byte table, the 8-byte half grid while
    # the last axis is transformed, and one block of temporaries
    f = field_new(p, n)
    _, _, peak = _traced(lambda: CharacterSystem(f))
    assert peak / f.q <= bound
