import json
import math
import tracemalloc

import numpy as np
import pytest

from thermohf.models import lipkin
from thermohf.models.ho import HarmonicOscillator, truncation_level
from thermohf.models.ising import IsingChain
from thermohf.ensemble import EnsemblePoint, potentials
from thermohf.models.lipkin import LipkinModel
from thermohf.numdiff import DiffConfig, central_diff
from thermohf.floattext import CHUNK_ROWS
from thermohf.sweep import (
    CSV_HEADER,
    MAX_GRID_POINTS,
    SWEEP_DTYPE,
    rows_to_csv,
    rows_to_json,
    sweep,
    temperature_grid,
)


def sweep_ho(t_grid):
    """Oscillator sweep truncated for the grid's largest temperature."""
    return sweep(HarmonicOscillator(n_max=truncation_level(float(t_grid.max()))), t_grid)


class TestTemperatureGrid:
    def test_linear(self):
        g = temperature_grid(1.0, 3.0, 5)
        assert np.allclose(g, [1.0, 1.5, 2.0, 2.5, 3.0])

    def test_geometric(self):
        g = temperature_grid(0.1, 10.0, 3, "geometric")
        assert np.allclose(g, [0.1, 1.0, 10.0])

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            temperature_grid(2.0, 1.0, 10)
        with pytest.raises(ValueError):
            temperature_grid(0.0, 1.0, 10)
        with pytest.raises(ValueError):
            temperature_grid(1.0, 2.0, 1)

    def test_reciprocal_of_t_min_must_be_finite(self):
        # the smallest t_min whose 1/t_min is finite, and the float below it
        assert 1.0 / temperature_grid(5.56268464626801e-309, 1.0, 2)[0] < math.inf
        for t_min in (5.562684646268003e-309, 1e-310, 5e-324):
            with pytest.raises(ValueError, match="1/t_min"):
                temperature_grid(t_min, 1.0, 2)

    def test_point_cap(self):
        assert temperature_grid(0.1, 1.0, MAX_GRID_POINTS).size == MAX_GRID_POINTS == 10**6
        with pytest.raises(ValueError, match="at most"):
            temperature_grid(0.1, 1.0, MAX_GRID_POINTS + 1)


class TestSweeps:
    def test_ho_rows_consistent(self):
        rows = sweep_ho(temperature_grid(0.1, 5.0, 10))
        for row in rows:
            assert row.free_energy == pytest.approx(
                row.energy - row.temperature * row.entropy, abs=1e-10
            )
            assert row.h1_direct == pytest.approx(row.df_dlambda, abs=1e-7)

    def test_ising_direct_path_is_energy(self):
        rows = sweep(IsingChain(2.0, 1.0, 6), temperature_grid(0.5, 5.0, 5))
        # lam scales the whole Hamiltonian, so <H1> at lam = 1 is E itself
        assert all(row.h1_direct == row.energy for row in rows)
        # global coupling derivative of F equals the total energy average
        for row in rows:
            assert row.df_dlambda == pytest.approx(row.energy, abs=1e-6)

    def test_lipkin_hf_suite(self):
        model = LipkinModel(6, 1.0, 3.0)
        t_grid = temperature_grid(0.5, 50.0, 80, "geometric")
        rows = sweep(model, t_grid)
        dh1_dt, _ = central_diff(
            lambda temps: model.potentials(1.0, EnsemblePoint.from_temperature(temps)).h1,
            t_grid,
        )
        assert len(rows) == 80 and dh1_dt.shape == (80,)
        for row in rows:
            assert row.free_energy == pytest.approx(
                row.energy - row.temperature * row.entropy, abs=1e-9
            )
            assert row.free_energy <= row.energy
        free_energies = [r.free_energy for r in rows]
        assert all(b < a for a, b in zip(free_energies, free_energies[1:]))
        for row in rows:
            assert row.df_dlambda == pytest.approx(row.h1_direct, abs=1e-6)
        # entropy corollary: d<H1>/dT = -dS/dlam at every grid point
        for k in range(80):
            assert dh1_dt[k] == pytest.approx(-rows[k].ds_dlambda, rel=0.05, abs=1e-3)

    def test_lipkin_one_spectrum_per_coupling(self, monkeypatch):
        calls = []
        for name in ("lipkin_levels_with_h1", "lipkin_spectrum"):
            def counted(model, lam, _name=name, _build=getattr(lipkin, name)):
                calls.append((_name, lam))
                return _build(model, lam)

            monkeypatch.setattr(lipkin, name, counted)
        sweep(LipkinModel(12, 1.0, 3.0), temperature_grid(0.1, 100.0, 50, "geometric"))
        # lam = 1 once with <H1>, plus two eigenvalue-only abscissae per
        # Richardson level, each lam once
        assert len(calls) == 1 + 2 * DiffConfig().richardson_levels
        assert calls[0] == ("lipkin_levels_with_h1", 1.0)
        assert all(name == "lipkin_spectrum" for name, _ in calls[1:])
        assert len({lam for _, lam in calls}) == len(calls)

    @pytest.mark.parametrize("model,t_grid", [
        (HarmonicOscillator(n_max=1600), temperature_grid(0.02, 40.0, 2000)),
        (IsingChain(-1.3, 0.7, 9), temperature_grid(0.05, 30.0, 300, "geometric")),
        (IsingChain(2.0, 1.0, 10), temperature_grid(0.1, 30.0, 200)),
        (LipkinModel(12, 1.0, 3.0), temperature_grid(0.1, 100.0, 200, "geometric")),
    ], ids=["ho-several-blocks", "ising-odd-antiferro", "ising", "lipkin"])
    def test_grid_equals_pointwise(self, model, t_grid):
        rows = sweep(model, t_grid)
        assert len(rows) == t_grid.size
        for k in range(0, t_grid.size, 37):
            (single,) = sweep(model, t_grid[k:k + 1])
            for got, want in zip(rows[k], single):
                assert abs(got - want) <= 1e-14 * max(1.0, abs(want))


class TestSweepTable:
    """sweep returns one record array of shape (T,), a row per temperature."""

    def test_shape_length_and_rows(self):
        t_grid = temperature_grid(0.5, 5.0, 7)
        table = sweep(IsingChain(2.0, 1.0, 6), t_grid)
        assert isinstance(table, np.recarray) and table.dtype == SWEEP_DTYPE
        assert table.shape == (7,) and len(table) == 7
        assert SWEEP_DTYPE.names[0] == "temperature" and len(SWEEP_DTYPE.names) == 8
        for k, row in enumerate(table):
            assert row.temperature == t_grid[k] == table[k].temperature
            assert row.energy == table.energy[k] == table[k]["energy"]
            assert list(row) == table.view(np.float64)[8 * k:8 * k + 8].tolist()

    def test_empty_table_serializes(self):
        table = np.empty(0, dtype=SWEEP_DTYPE).view(np.recarray)
        assert len(table) == 0 and table.shape == (0,)
        assert rows_to_csv(table) == CSV_HEADER + "\n"
        assert json.loads(rows_to_json(table, {"model": "ho"})) == {
            "config": {"model": "ho"}, "rows": []}

    def test_strided_table_serializes(self):
        table = sweep(IsingChain(2.0, 1.0, 6), temperature_grid(0.5, 5.0, 7))
        assert rows_to_csv(table[::3]) == reference_csv(table[::3])
        assert rows_to_json(table[::3], {}) == reference_json(table[::3], {})


class TestOscillatorRowsStandAlone:
    """Below the level cap an oscillator row's bits depend on its own
    temperature alone, in every column."""

    @pytest.mark.parametrize("t_grid", [temperature_grid(0.02, 40.0, 2000),
                                        temperature_grid(0.05, 20.0, 300, "geometric")],
                             ids=["linear", "geometric"])
    def test_grid_row_equals_its_temperature_swept_alone(self, t_grid):
        # 2 * max(64, 40 T / sqrt(lam)) < 4096 at every abscissa: no group is capped
        model = HarmonicOscillator(n_max=4096)
        rows = sweep(model, t_grid)
        for k in range(0, t_grid.size, 23):
            (single,) = sweep(model, t_grid[k:k + 1])
            assert np.array_equal(rows[k], single)


class TestPotentialsWithoutH1:
    """potentials(lam, point, h1=False), which sweep uses at the derivative
    abscissae, gives h1 = None and the potentials of the default call."""

    POINT = EnsemblePoint.from_temperature(temperature_grid(0.05, 30.0, 300, "geometric"))

    @pytest.mark.parametrize("model", [
        HarmonicOscillator(n_max=1600), IsingChain(-1.3, 0.7, 9), IsingChain(2.0, 1.0, 10),
    ], ids=["ho", "ising-odd-antiferro", "ising"])
    @pytest.mark.parametrize("lam", [1.0, 1.0 + 1e-5, 1.0 - 5e-6])
    def test_same_bits_as_default(self, model, lam):
        full = model.potentials(lam, self.POINT)
        bare = model.potentials(lam, self.POINT, h1=False)
        assert full.h1 is not None and bare.h1 is None
        for name in ("ln_z", "free_energy", "energy", "entropy"):
            assert np.array_equal(getattr(bare, name), getattr(full, name))

    @pytest.mark.parametrize("lam", [1.0, 1.0 + 1e-5, 1.0 - 5e-6])
    @pytest.mark.parametrize("n,v", [(12, 3.0), (37, -4.7), (20, 0.0)])
    def test_lipkin_from_eigenvalues_alone(self, n, v, lam):
        # the bits of the engine on the eigenvalue-only spectrum; F and E
        # within 1e-14 of the largest |E_n| of the default's, which uses eigh
        # (measured at most 1.6e-15: eigvalsh and eigh differ by rounding)
        model = LipkinModel(n, 1.0, v)
        full = model.potentials(lam, self.POINT)
        bare = model.potentials(lam, self.POINT, h1=False)
        engine = potentials(lipkin.lipkin_spectrum(model, lam), self.POINT)
        assert full.h1 is not None and bare.h1 is None
        for name in ("ln_z", "free_energy", "energy", "entropy"):
            assert np.array_equal(getattr(bare, name), getattr(engine, name))
        scale = np.max(np.abs(lipkin.lipkin_levels_with_h1(model, lam)[0].energies))
        assert np.max(np.abs(bare.free_energy - full.free_energy)) <= 1e-14 * scale
        assert np.max(np.abs(bare.energy - full.energy)) <= 1e-14 * scale


class TestSerialization:
    def test_csv_header_and_every_field(self):
        rows = sweep(IsingChain(2.0, 1.0, 4), temperature_grid(1.0, 2.0, 2))
        text = rows_to_csv(rows)
        lines = text.splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 3
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(CSV_HEADER.split(",")) and all(fields)
            assert fields[-1] == fields[1]  # H1_direct = E for the Ising chain

    def test_csv_round_trip_17_digits(self):
        rows = sweep_ho(temperature_grid(0.3, 1.0, 3))
        lines = rows_to_csv(rows).splitlines()
        fields = lines[1].split(",")
        assert float(fields[1]) == rows[0].energy

    def test_csv_deterministic(self):
        grid = temperature_grid(0.5, 5.0, 4)
        a = rows_to_csv(sweep(LipkinModel(4, 1.0, 3.0), grid))
        b = rows_to_csv(sweep(LipkinModel(4, 1.0, 3.0), grid))
        assert a == b

    def test_json_mirrors_csv(self):
        rows = sweep_ho(temperature_grid(0.3, 1.0, 3))
        payload = json.loads(rows_to_json(rows, {"model": "ho"}))
        assert payload["config"] == {"model": "ho"}
        assert len(payload["rows"]) == 3
        assert set(payload["rows"][0]) == set(CSV_HEADER.split(","))
        assert payload["rows"][0]["T"] == rows[0].temperature


def reference_values(row):
    return [
        row.temperature, row.energy, row.free_energy, row.entropy,
        row.df_dlambda, row.de_dlambda, row.ds_dlambda, row.h1_direct,
    ]


def reference_csv(rows):
    """One format() call per value, one join per row."""
    lines = [CSV_HEADER]
    for row in rows:
        lines.append(",".join(format(v, ".17g") for v in reference_values(row)))
    return "\n".join(lines) + "\n"


def reference_json(rows, config_echo):
    """The whole payload through json.dumps with indent=2."""
    keys = CSV_HEADER.split(",")
    payload = {
        "config": config_echo,
        "rows": [dict(zip(keys, reference_values(row))) for row in rows],
    }
    return json.dumps(payload, indent=2) + "\n"


class TestSerializationBytes:
    """rows_to_csv and rows_to_json write the reference serializers' bytes."""

    SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
               1.7976931348623157e308, -1.7976931348623157e308]
    # nested values and a "rows" key of its own
    ECHO = {"model": "lipkin", "rows": [1, {"rows": []}], "nested": {"a": [0.1, None]},
            "t_min": 1e-3, "grid": "geometric", "N": 70}

    def rows(self, n):
        rng = np.random.default_rng(n)
        values = rng.standard_normal((n, 8)) * 10.0 ** rng.integers(-300, 300, (n, 8))
        flat = values.ravel()
        flat[: min(flat.size, 64)] = np.resize(self.SPECIAL, min(flat.size, 64))
        return values.view(SWEEP_DTYPE).reshape(n).view(np.recarray)

    @pytest.mark.parametrize("n", [0, 1, 2000, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_csv(self, n):
        rows = self.rows(n)
        assert rows_to_csv(rows) == reference_csv(rows)

    @pytest.mark.parametrize("echo", [ECHO, {}], ids=["nested-echo", "empty-echo"])
    @pytest.mark.parametrize("n", [0, 1, 2000, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1])
    def test_json(self, n, echo):
        rows = self.rows(n)
        assert rows_to_json(rows, echo) == reference_json(rows, echo)

    def test_every_special_value_is_written(self):
        text = rows_to_csv(self.rows(1)) + rows_to_json(self.rows(1), {})
        for token in ("nan", "inf", "-inf", "-0", "4.9406564584124654e-324",
                      "1.7976931348623157e+308", "NaN", "Infinity", "-Infinity",
                      "-0.0", "5e-324", "1.7976931348623157e+308"):
            assert token in text


class TestSerializerMemory:
    """The serializers keep the text's chunks and the joined text, and of
    anything else a chunk's worth: no Python float or byte row per value of
    the whole table."""

    @pytest.mark.parametrize("serialize", [rows_to_csv, lambda table: rows_to_json(table, {})],
                             ids=["csv", "json"])
    def test_peak_is_twice_the_text(self, serialize):
        rows = 100 * CHUNK_ROWS
        values = np.random.default_rng(5).standard_normal((rows, 8))
        table = values.view(SWEEP_DTYPE).reshape(rows).view(np.recarray)
        tracemalloc.start()
        try:
            text = serialize(table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2 * len(text) + 4 * 2**20
