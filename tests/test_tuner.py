import numpy as np
import pytest

from qcradle import (
    diagonalize,
    edge_modified_chain,
    flatness_probe,
    peak_transfer,
    tune_double,
    tune_single,
    uniform_chain,
)


def _edge_peak(M, tau, x, y=None):
    return peak_transfer(diagonalize(edge_modified_chain(M, tau, x, y))).peak_amplitude


class TestTuneSingle:
    def test_m3_beats_exhaustive_grid(self):
        # independent oracle: exhaustive scan at step 1e-3
        result = tune_single(3, 1.0)
        xs = np.arange(1e-3, 1.0 + 1e-9, 1e-3)
        exhaustive = max(_edge_peak(3, 1.0, float(x)) for x in xs)
        assert result.best_amplitude >= exhaustive - 1e-6

    def test_degenerate_grid_is_uniform_chain(self):
        result = tune_single(10, 1.0, x_grid=1)
        assert len(result.trace) == 1
        assert result.best_params == (1.0,)
        uniform_peak = peak_transfer(diagonalize(uniform_chain(10, 1.0))).peak_amplitude
        assert result.best_amplitude == pytest.approx(uniform_peak, abs=0)

    def test_invariants(self):
        result = tune_single(20, 1.0, x_grid=20)
        amps = [amp for _, amp in result.trace]
        assert result.best_amplitude >= max(amps) - 1e-15
        assert result.evaluations == len(result.trace)
        assert 0.0 < result.best_params[0] <= 1.0

    def test_deterministic(self):
        a = tune_single(15, 1.0, x_grid=15)
        b = tune_single(15, 1.0, x_grid=15)
        assert a.trace == b.trace and a.best_params == b.best_params

    def test_scale_free_at_tiny_hopping(self):
        # peak times near 1e12: the peak search works in units of 1/tau_max,
        # so the tuned factor does not depend on the hopping scale
        assert tune_single(5, 1e-12, 3).best_params == tune_single(5, 1.0, 3).best_params

    def test_needs_three_sites(self):
        with pytest.raises(ValueError):
            tune_single(2, 1.0)


class TestTuneDouble:
    def test_degenerate_grid_is_uniform_chain(self):
        result = tune_double(8, 1.0, grid=1)
        assert len(result.trace) == 1
        uniform_peak = peak_transfer(diagonalize(uniform_chain(8, 1.0))).peak_amplitude
        assert result.best_amplitude == pytest.approx(uniform_peak, abs=0)

    def test_nesting_of_search_spaces(self):
        # richer parameterizations cannot do worse
        uniform_peak = peak_transfer(diagonalize(uniform_chain(20, 1.0))).peak_amplitude
        single = tune_single(20, 1.0, x_grid=13)
        double = tune_double(20, 1.0, grid=13)
        assert double.best_amplitude >= single.best_amplitude - 1e-12
        assert single.best_amplitude >= uniform_peak - 1e-12

    def test_optimal_x_scaling_law(self):
        # x* should shrink roughly like M^(-1/3) between M=50 and M=100
        x50 = tune_double(50, 1.0, grid=25).best_params[0]
        x100 = tune_double(100, 1.0, grid=25).best_params[0]
        ratio = x50 / x100
        assert abs(ratio - 2.0 ** (1.0 / 3.0)) < 0.15 * 2.0 ** (1.0 / 3.0)

    def test_needs_five_sites(self):
        with pytest.raises(ValueError):
            tune_double(4, 1.0)


class TestSearchPath:
    # evaluation counts and optima of the grid-and-descent search, pinned so
    # that a change in grid order, bracket or sweep rule shows up here
    @pytest.mark.parametrize(
        "tune, M, grid, evaluations, params, amplitude",
        [
            (tune_single, 20, 13, 33, (0.6491582178827348,), 0.9736328329108737),
            (tune_double, 12, 4, 555, (0.6237424507287344, 0.8650637326232039), 0.9981231910040878),
            (tune_double, 20, 13, 529, (0.5503298124984526, 0.8178035554698463), 0.9960619087348049),
        ],
        ids=["single-M20", "double-M12", "double-M20"],
    )
    def test_pinned(self, tune, M, grid, evaluations, params, amplitude):
        result = tune(M, 1.0, grid)
        assert result.evaluations == evaluations
        assert result.best_params == pytest.approx(params, abs=1e-12)
        assert result.best_amplitude == pytest.approx(amplitude, abs=1e-12)

    @pytest.mark.parametrize("tune, M, grid", [(tune_single, 100, 50), (tune_double, 40, 10)], ids=["single", "double"])
    def test_scale_free(self, tune, M, grid):
        # the peak search works in units of 1/tau_max, so every hopping scale
        # gives the tuner the same objective and the same search path
        ref = tune(M, 1.0, grid)
        for c in (1e-3, 1e5):
            result = tune(M, c, grid)
            assert result.evaluations == ref.evaluations
            assert result.best_params == pytest.approx(ref.best_params, abs=1e-12)


class TestFlatnessProbe:
    @pytest.mark.parametrize("tune, grid", [(tune_single, 12), (tune_double, 4)], ids=["x", "xy"])
    def test_zero_radius_equals_best(self, tune, grid):
        result = tune(12, 1.0, grid)
        probe = flatness_probe(12, 1.0, result.best_params, 0.0)
        assert probe == pytest.approx(result.best_amplitude, abs=1e-12)

    def test_single_param_neighborhood(self):
        result = tune_single(30, 1.0, x_grid=25)
        probe = flatness_probe(30, 1.0, result.best_params, 0.05)
        assert probe <= result.best_amplitude
        assert probe >= result.best_amplitude - 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            flatness_probe(10, 1.0, (0.5, 0.5, 0.5), 0.01)
        with pytest.raises(ValueError):
            flatness_probe(10, 1.0, (1.5,), 0.01)
        for radius in (-0.1, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="radius"):
                flatness_probe(10, 1.0, (0.5,), radius)
