"""Table enumeration, sampling, and the jit/pure path parity contract."""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

import oracles
from greenheight import _accel


def test_enumerate_counts():
    assert len(_accel.enumerate_assoc_tables(1)) == 1
    assert len(_accel.enumerate_assoc_tables(2)) == 8
    assert len(_accel.enumerate_assoc_tables(3)) == 113


def test_enumerate_matches_brute_force_oracle():
    for m in (1, 2, 3):
        got = {tuple(map(tuple, t.tolist())) for t in _accel.enumerate_assoc_tables(m)}
        assert got == set(oracles.brute_force_tables(m))


def test_enumerate_numpy_path_agrees():
    for m in (2, 3):
        a = [t.tolist() for t in _accel.enumerate_assoc_tables(m)]
        b = [t.tolist() for t in _accel.enumerate_assoc_tables_numpy(m)]
        assert a == b


def test_enumerate_rejects_large_order():
    with pytest.raises(ValueError):
        _accel.enumerate_assoc_tables(4)


def test_assoc_witness_none_iff_associative():
    for t in _accel.enumerate_assoc_tables(3):
        assert _accel.assoc_witness(t) is None
    bad = np.array([[1, 0], [0, 0]])
    w = _accel.assoc_witness(bad)
    assert w is not None
    a, b, c = w
    assert bad[bad[a, b], c] != bad[a, bad[b, c]]


def test_assoc_witness_is_lex_first_and_paths_agree():
    rng = np.random.default_rng(5)
    for _ in range(200):
        m = int(rng.integers(2, 6))
        t = rng.integers(0, m, size=(m, m)).astype(np.int32)
        loop = _accel.python_kernels.assoc_witness_loop(t)
        vec = _accel.assoc_witness_numpy(t)
        if loop[0] < 0:
            assert vec is None
            assert oracles.check_associative(t.tolist())
        else:
            assert vec == tuple(int(x) for x in loop)
            a, b, c = vec
            assert t[t[a, b], c] != t[a, t[b, c]]
            # nothing lexicographically earlier fails
            for a2 in range(a + 1):
                for b2 in range(m):
                    for c2 in range(m):
                        if (a2, b2, c2) >= (a, b, c):
                            break
                        assert t[t[a2, b2], c2] == t[a2, t[b2, c2]]


def test_splitmix64_reference_vector():
    state = np.uint64(0)
    expected = (0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F)
    with np.errstate(over="ignore"):
        for want in expected:
            state, z = _accel.python_kernels.mix64(state)
            assert int(z) == want


def test_sampler_tables_are_associative_and_deterministic():
    a = _accel.sample_assoc_tables(4, 25, seed=11)
    b = _accel.sample_assoc_tables(4, 25, seed=11)
    c = _accel.sample_assoc_tables(4, 25, seed=12)
    assert len(a) == 25
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert any(not np.array_equal(x, y) for x, y in zip(a, c))
    for t in a:
        assert oracles.check_associative(t.tolist())


def test_sampler_output_is_pinned():
    # digests of the samples drawn before the node budget was validated
    ts = _accel.sample_assoc_tables(4, 20, seed=3)
    assert ts.dtype == np.int32 and ts.shape == (20, 4, 4)
    assert hashlib.sha256(ts.tobytes()).hexdigest() == (
        "f2c75c48063a8e7d697513f3e8c93fb07a3849058604213e05e03029bd2eee0e"
    )
    ts = _accel.sample_assoc_tables(2, 5, seed=3, node_budget=4)
    assert hashlib.sha256(ts.tobytes()).hexdigest() == (
        "5a09ed9f13ea2cbba23195c277464b78b877188ad881ea5a45428e2abcc315f6"
    )


def test_sampler_rejects_budget_below_table_size():
    # a table takes m*m placements; these budgets used to restart forever
    for m, budget in ((1, 0), (2, 3), (4, 15)):
        with pytest.raises(ValueError, match="node_budget"):
            _accel.sample_assoc_tables(m, 1, node_budget=budget)
        with pytest.raises(ValueError, match="node_budget"):
            _accel.sample_assoc_tables_python(m, 1, node_budget=budget)


def test_sampler_python_and_jit_paths_agree():
    if _accel.numba_kernels is None:
        pytest.skip("jit path disabled in this environment")
    py = _accel.sample_assoc_tables_python(4, 20, seed=3)
    jit = _accel.sample_assoc_tables_numba(4, 20, seed=3)
    assert all(np.array_equal(x, y) for x, y in zip(py, jit))


def test_no_numba_env_flag_disables_jit_with_identical_samples():
    code = (
        "from greenheight import _accel\n"
        "import numpy as np\n"
        "assert not _accel.NUMBA_ENABLED\n"
        "assert _accel.numba_kernels is None\n"
        "ts = _accel.sample_assoc_tables(4, 10, seed=9)\n"
        "print(np.array(ts).tobytes().hex())\n"
    )
    env = dict(os.environ, GREENHEIGHT_NO_NUMBA="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    here = _accel.sample_assoc_tables(4, 10, seed=9)
    assert out.stdout.strip() == np.array(here).tobytes().hex()


def test_sampler_order_one_and_two():
    ts = _accel.sample_assoc_tables(1, 3, seed=0)
    assert all(t.tolist() == [[0]] for t in ts)
    ts = _accel.sample_assoc_tables(2, 40, seed=0)
    seen = {tuple(map(tuple, t.tolist())) for t in ts}
    assert seen <= set(oracles.brute_force_tables(2))
    assert len(seen) > 1
