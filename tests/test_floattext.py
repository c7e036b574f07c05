"""The float-text kernel against Python's own formatter, token by token."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest

from thermohf import floattext
from thermohf.models.ising import IsingChain
from thermohf.sweep import sweep, temperature_grid


def kernel_lines(values, shortest) -> list[str]:
    """Each value's token from the kernel, one per line of a one-field table;
    cli.main raises on over, divide and invalid, so the kernel must run
    clean under all of them."""
    table = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    with np.errstate(all="raise"):
        parts = floattext.rows_text(table, ("",), ("\n",), shortest)
    return "".join(parts).split("\n")[:-1]


def assert_python_tokens(values):
    """'%.17g' % v and json.dumps(v) for every value (json.dumps of the list
    writes each float as json.dumps of the float alone)."""
    values = np.asarray(values, dtype=np.float64)
    listed = values.tolist()
    expected = {
        "%.17g": ("%.17g\n" * len(listed) % tuple(listed)).split("\n")[:-1],
        "json.dumps": json.dumps(listed)[1:-1].split(", ") if listed else [],
    }
    for (name, want), shortest in zip(expected.items(), (False, True)):
        got = kernel_lines(values, shortest)
        if got != want:
            bad = [(x, g, w) for x, g, w in zip(listed, got, want) if g != w]
            pytest.fail(f"{name}: {len(bad)} of {len(listed)} tokens differ, "
                        f"first (value, kernel, python): {bad[:5]}")


def ulp_neighbours(values, reach=3):
    """Each value and the doubles up to reach ulps on either side, in the
    same sign, finite only."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    near = (bits[:, None] + np.arange(-reach, reach + 1)).ravel()
    near = near[(near >= 0) & (near < np.float64(np.inf).view(np.int64))]
    return near.view(np.float64)


def signed(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


class TestPythonBytes:
    """Over a million deterministic values, every token is Python's."""

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(20191023)
        bits = rng.integers(0, 2**64, 300_000, dtype=np.uint64)
        # a share of them with the exponent field all ones (NaN payloads,
        # infinities) and all zeros (subnormals, zeros)
        exponent_field = np.uint64(0x7FF) << np.uint64(52)
        bits[:10_000] |= exponent_field
        bits[10_000:20_000] &= ~exponent_field
        assert_python_tokens(bits.view(np.float64))

    def test_random_mantissas_at_moderate_exponents(self):
        # the magnitudes of physical tables, 2**-100 to 2**100, any sign
        rng = np.random.default_rng(20191024)
        bits = rng.integers(0, 2**52, 500_000, dtype=np.uint64)
        bits |= rng.integers(1023 - 100, 1023 + 100, bits.size).astype(np.uint64) << np.uint64(52)
        bits |= rng.integers(0, 2, bits.size).astype(np.uint64) << np.uint64(63)
        assert_python_tokens(bits.view(np.float64))

    def test_specials(self):
        assert_python_tokens([0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan,
                              5e-324, -5e-324, 2.2250738585072014e-308,
                              2.225073858507201e-308, 1.7976931348623157e308])

    def test_powers_of_two_and_ten_and_their_neighbours(self):
        twos = np.ldexp(1.0, np.arange(-1074, 1024))
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        assert_python_tokens(signed(ulp_neighbours(np.concatenate([twos, tens]))))

    def test_layout_switch_points(self):
        # fixed and scientific notation meet at 1e-5 / 1e-4 (both formats),
        # 1e16 (repr) and 1e17 (%.17g); 17 digits round up to the next
        # power of ten just below each
        points = [1e-5, 1e-4, 1e16, 1e17, 9.9999999999999995e-05, 99999999999999984.0,
                  9999999999999998.0, 1e100, 1e-100, 0.5, 1.0, 10.0]
        assert_python_tokens(signed(ulp_neighbours(points, reach=200)))

    def test_exact_ties(self):
        # values whose rounding or interval test lies on its decision
        assert_python_tokens(signed([1335010957559382.8, 1155651780064066.2,
                                     9347418660601088.0, 2.9141258880225468e16]))

    def test_short_decimals(self):
        # integers scaled by powers of ten: repr's digits are short, and its
        # walk stops at the hundreds or earlier
        rng = np.random.default_rng(7)
        values = rng.integers(-10**6, 10**6, 150_000) / 10.0 ** rng.integers(-20, 20, 150_000)
        assert_python_tokens(values)

    def test_grids(self):
        assert_python_tokens(np.concatenate([temperature_grid(0.02, 40.0, 5000),
                                             temperature_grid(1e-3, 50.0, 5000, "geometric")]))


def test_powers_of_ten_table():
    # every entry a finite normal value's scaling can ask for, against the
    # exact power of ten
    wrong = []
    for s in range(-293, 326):
        hi, lo, e = floattext._power_of_ten(s)
        exact = (Fraction(hi) + Fraction(lo)) * Fraction(2) ** e
        if not (1.0 <= hi <= 2.0 and abs(lo) <= math.ulp(hi)
                and abs(exact - Fraction(10) ** s) <= Fraction(10) ** s / 2**105):
            wrong.append(s)
    assert not wrong


class TestWrite:
    def test_writes_only_its_words(self):
        values = np.array([1.5, -0.0, math.nan, 1e300, -2.5e-7])
        block = np.full((len(values), floattext._WORDS + 2), 0x4141414141414141, np.uint64)
        floattext._write(values, block[:, 1:-1], shortest=False)
        assert (block[:, 0] == 0x4141414141414141).all()
        assert (block[:, -1] == 0x4141414141414141).all()
        text = block.tobytes().translate(None, b"\0").decode("ascii")
        lines = text.replace("AAAAAAAA", "\n").split()
        assert lines == ["%.17g" % v for v in values.tolist()]

    def test_empty(self):
        for shortest in (False, True):
            assert floattext.rows_text(np.zeros((0, 1)), ("",), ("\n",), shortest) == []
            assert floattext.rows_text(np.zeros((0, 3)), ("",) * 3, (",", ",", "\n"),
                                       shortest) == []
            floattext._write(np.zeros(0), np.zeros((0, floattext._WORDS), np.uint64), shortest)

    @pytest.mark.parametrize("shortest", [False, True], ids=["g17", "json"])
    def test_python_formats_few_sweep_values(self, shortest, monkeypatch):
        # the vectorized path writes all but a sliver of a real table; the
        # fallback count is the number of texts Python formats
        fallback = []

        def counted(texts, width):
            fallback.extend(texts)
            return byte_rows(texts, width)

        byte_rows = floattext._byte_rows
        monkeypatch.setattr(floattext, "_byte_rows", counted)
        table = sweep(IsingChain(-1.3, 0.7, 9), temperature_grid(0.05, 30.0, 500, "geometric"))
        values = np.ascontiguousarray(table).view(np.float64)
        floattext._write(values, np.zeros((values.size, floattext._WORDS), np.uint64), shortest)
        assert len(fallback) <= values.size // 100


def test_word_rows_built_once_per_separators():
    before, after = ("<",), (">\n",)
    misses = floattext._word_rows.cache_info().misses
    for _ in range(3):
        assert floattext.rows_text(np.array([[1.5], [2.0]]), before, after, False) == ["<1.5>\n<2>\n"]
    assert floattext._word_rows.cache_info().misses == misses + 1
