import warnings

import numpy as np
import pytest

from qcradle import (
    ChainSpec,
    DegenerateStateError,
    WaveState,
    edge_modified_chain,
    gaussian_trap_chain,
    gaussian_wavepacket,
    kick_state,
    mirror_symmetric,
    pst_chain,
    uniform_chain,
)

SQRT2 = np.sqrt(2.0)


class TestUniformChain:
    def test_definition(self):
        spec = uniform_chain(3, 1.0)
        assert np.array_equal(spec.tau, [1.0, 1.0])
        assert np.array_equal(spec.eps, [0.0, 0.0, 0.0])

    def test_single_site(self):
        spec = uniform_chain(1, 1.0)
        assert spec.tau.size == 0
        assert np.array_equal(spec.eps, [0.0])

    @pytest.mark.parametrize("M,tau", [(0, 1.0), (3, 0.0), (3, -1.0)])
    def test_invalid_arguments(self, M, tau):
        with pytest.raises(ValueError):
            uniform_chain(M, tau)


class TestPstChain:
    def test_couplings_m3(self):
        spec = pst_chain(3, 1.0)
        assert np.allclose(spec.tau, [SQRT2, SQRT2], rtol=0, atol=1e-15)

    def test_m2(self):
        assert np.array_equal(pst_chain(2, 1.0).tau, [1.0])

    def test_mirror_symmetry_exact(self):
        # sqrt(j(M-j)) is symmetric as an integer product, so bitwise equal
        for M in (2, 5, 10, 31):
            spec = pst_chain(M, 0.7)
            assert np.array_equal(spec.tau, spec.tau[::-1])
            assert mirror_symmetric(spec)

    def test_invalid(self):
        with pytest.raises(ValueError):
            pst_chain(1, 1.0)
        with pytest.raises(ValueError):
            pst_chain(5, 0.0)


class TestEdgeModifiedChain:
    def test_single_pair(self):
        spec = edge_modified_chain(6, 1.0, 0.5)
        assert np.array_equal(spec.tau, [0.5, 1.0, 1.0, 1.0, 0.5])
        assert mirror_symmetric(spec)

    def test_identity_case_bitwise(self):
        assert np.array_equal(
            edge_modified_chain(6, 1.0, 1.0, 1.0).tau, uniform_chain(6, 1.0).tau
        )

    def test_two_pairs(self):
        spec = edge_modified_chain(7, 2.0, 0.5, 0.75)
        assert np.array_equal(spec.tau, [1.0, 1.5, 2.0, 2.0, 1.5, 1.0])

    @pytest.mark.parametrize("x,y", [(0.0, None), (1.5, None), (0.5, 0.0), (0.5, 1.1)])
    def test_factor_range(self, x, y):
        with pytest.raises(ValueError):
            edge_modified_chain(8, 1.0, x, y)

    def test_min_length(self):
        with pytest.raises(ValueError):
            edge_modified_chain(2, 1.0, 0.5)
        with pytest.raises(ValueError):
            edge_modified_chain(4, 1.0, 0.5, 0.5)


class TestGaussianTrapChain:
    def test_profile_ratio(self):
        # exp(-900/12100) evaluated directly
        spec = gaussian_trap_chain(100, 1.0, 50.0, 110.0)
        assert spec.eps[49] == pytest.approx(-1.0, abs=1e-15)
        assert spec.eps[19] / spec.eps[49] == pytest.approx(np.exp(-900.0 / 12100.0), rel=1e-12)

    def test_wide_limit_is_uniform_shift(self):
        from qcradle import diagonalize

        spec = gaussian_trap_chain(5, 1.0, 3.0, 1e9, sign=1)
        assert np.allclose(spec.eps, 1.0, rtol=0, atol=1e-12)
        shifted = diagonalize(spec).omega - 1.0
        flat = diagonalize(uniform_chain(5, 1.0)).omega
        assert np.allclose(shifted, flat, rtol=0, atol=1e-12)

    def test_narrowest_width_leaves_far_sites_empty(self):
        # (j - x_m)^2 / theta^2 overflows past two sites; those offsets are 0, with no warning
        assert np.array_equal(gaussian_trap_chain(5, 1.0, 1.0, 1.5e-154).eps, [-1.0, 0.0, 0.0, 0.0, 0.0])

    def test_sign_choices(self):
        up = gaussian_trap_chain(10, 1.0, 5.0, 4.0, sign=1)
        down = gaussian_trap_chain(10, 1.0, 5.0, 4.0, sign=-1)
        assert np.array_equal(up.eps, -down.eps)
        # default is the confining sign
        assert np.array_equal(gaussian_trap_chain(10, 1.0, 5.0, 4.0).eps, down.eps)

    def test_invalid(self):
        with pytest.raises(ValueError):
            gaussian_trap_chain(10, 1.0, 5.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_trap_chain(10, 1.0, 5.0, 4.0, sign=2)


# widths whose square overflows, where a Python float's square raises OverflowError:
# a Python and a NumPy width give the same flat profile
@pytest.mark.parametrize("width", [1e155, 1e200, 1.7e308])
def test_overflowing_width_gives_a_flat_profile(width):
    for sign in (-1, 1):
        traps = [gaussian_trap_chain(5, 1.0, 3.0, w, sign=sign).eps for w in (width, np.float64(width))]
        assert traps[0].tobytes() == traps[1].tobytes() == np.full(5, float(sign)).tobytes()
    packets = [gaussian_wavepacket(5, 3.0, w).z for w in (width, np.float64(width))]
    assert packets[0].tobytes() == packets[1].tobytes() == np.full(5, 1.0 / np.sqrt(5.0), dtype=complex).tobytes()


def test_huge_centre_and_width_give_the_ratio_squared():
    # (j - c)^2 and the width's square both overflow, and inf/inf would be NaN:
    # the profile is exp(-((j - c)/w)^2) instead, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        far = gaussian_trap_chain(5, 1.0, 1e308, 1e200).eps  # ((j - c)/w)^2 = 1e216
        assert far.tobytes() == np.full(5, -0.0).tobytes()
        near = gaussian_trap_chain(5, 1.0, 1e200, 1e200).eps  # ((j - c)/w)^2 = 1
        assert near.tobytes() == np.full(5, -np.exp(-1.0)).tobytes()
        with pytest.raises(DegenerateStateError):
            gaussian_wavepacket(5, 1e308, 1e200)
        packet = gaussian_wavepacket(5, 1e200, 1e200).z
        assert packet.tobytes() == np.full(5, 1.0 / np.sqrt(5.0), dtype=complex).tobytes()


class TestKickState:
    def test_first_site(self):
        assert np.array_equal(kick_state(4, 1).z, [1, 0, 0, 0])

    def test_last_site(self):
        assert np.array_equal(kick_state(4, 4).z, [0, 0, 0, 1])

    def test_long_chain_trigger(self):
        z = kick_state(100, 1).z
        assert z[0] == 1.0 and np.count_nonzero(z) == 1

    @pytest.mark.parametrize("site", [0, 5, -1, 1.5, 2.0, True])
    def test_out_of_range(self, site):
        with pytest.raises(ValueError, match=rf"^site must be an integer in 1\.\.4, got {site}$"):
            kick_state(4, site)


class TestGaussianWavepacket:
    def test_single_site_normalizes_to_unity(self):
        assert np.array_equal(gaussian_wavepacket(1, 1.0, 1.0).z, [1.0 + 0.0j])

    def test_flat_limit(self):
        z = gaussian_wavepacket(3, 2.0, 1e9).z
        assert np.allclose(z, 1.0 / np.sqrt(3.0), rtol=0, atol=1e-12)

    def test_normalized(self):
        z = gaussian_wavepacket(100, 20.0, 10.0).z
        assert abs(np.sum(np.abs(z) ** 2) - 1.0) < 1e-12

    def test_strictly_decreasing_in_distance(self):
        # non-integer center so no two sites sit at the same distance
        z = np.real(gaussian_wavepacket(50, 17.3, 6.0).z)
        j = np.arange(1, 51)
        order = np.argsort(np.abs(j - 17.3))
        assert np.all(np.diff(z[order]) < 0)

    def test_narrowest_width_leaves_far_sites_empty(self):
        assert np.array_equal(gaussian_wavepacket(5, 1.0, 1.5e-154).z, [1.0, 0.0, 0.0, 0.0, 0.0])

    def test_underflow(self):
        with pytest.raises(DegenerateStateError):
            gaussian_wavepacket(3, 1e6, 1.0)

    @pytest.mark.parametrize("M, x0", [(3, -18.0), (3, -18.3), (5, 30.0)])
    def test_subnormal_squares_still_normalize(self, M, x0):
        # the largest weight is normal (e^-361, e^-372.5) or tiny (e^-625)
        # but every square is subnormal or 0: the packet is the Gaussian
        # normalized from the largest weight, not a refusal
        z = gaussian_wavepacket(M, x0, 1.0).z
        assert abs(np.sum(np.abs(z) ** 2) - 1.0) <= 4e-16
        log_w = -((np.arange(1, M + 1) - x0) ** 2)
        assert np.allclose(z.real, np.exp(log_w - log_w.max()), rtol=1e-12, atol=1e-40)

    def test_invalid(self):
        with pytest.raises(ValueError):
            gaussian_wavepacket(3, 1.0, 0.0)
        with pytest.raises(ValueError):
            gaussian_wavepacket(3, np.inf, 1.0)


class TestInvariants:
    def test_chainspec_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ChainSpec(M=3, tau=[1.0], eps=[0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            ChainSpec(M=3, tau=[1.0, 1.0], eps=[0.0, 0.0])
        with pytest.raises(ValueError):
            ChainSpec(M=3, tau=[1.0, 0.0], eps=[0.0, 0.0, 0.0])

    def test_wavestate_requires_normalization(self):
        with pytest.raises(ValueError):
            WaveState(z=np.array([1.0, 1.0]))

    @pytest.mark.parametrize("z", [[np.nan], [1.0, np.nan], [np.inf]], ids=["nan", "one-nan", "inf"])
    def test_wavestate_rejects_non_finite(self, z):
        with pytest.raises(ValueError, match="not normalized"):
            WaveState(z=np.array(z))

    def test_constructor_states_normalized(self):
        for state in (kick_state(7, 3), gaussian_wavepacket(40, 11.0, 3.0)):
            assert abs(np.sum(np.abs(state.z) ** 2) - 1.0) < 1e-12

    def test_mirror_symmetric_predicate(self):
        assert mirror_symmetric(uniform_chain(6, 1.0))
        assert not mirror_symmetric(ChainSpec(M=3, tau=[1.0, 2.0], eps=np.zeros(3)))
        assert not mirror_symmetric(ChainSpec(M=2, tau=[1.0], eps=[0.0, 0.5]))

    def test_values_immutable(self):
        spec = uniform_chain(4, 1.0)
        with pytest.raises(ValueError):
            spec.tau[0] = 2.0
        state = kick_state(4, 1)
        with pytest.raises(ValueError):
            state.z[0] = 0.0


@pytest.mark.parametrize(
    "build, message",
    [
        (
            lambda: ChainSpec(M=2, tau=[np.inf], eps=[0.0, 0.0]),
            "tau must be a length-1 array of finite numbers in (0, inf)",
        ),
        (
            lambda: ChainSpec(M=2, tau=[1.0], eps=[0.0, np.nan]),
            "eps must be a length-2 array of finite numbers in (-inf, inf)",
        ),
        (lambda: WaveState(z=np.array([])), "z must be a nonempty 1-d amplitude vector"),
        (lambda: WaveState(z=np.eye(2)), "z must be a nonempty 1-d amplitude vector"),
        (lambda: edge_modified_chain(5, 0.0, 0.5), "tau must be a finite number in (0, inf), got 0.0"),
        (lambda: gaussian_trap_chain(5, -1.0, 2.0, 3.0), "tau must be a finite number in (0, inf), got -1.0"),
    ],
    ids=["inf-tau", "nan-eps", "empty-z", "2d-z", "edge-tau", "trap-tau"],
)
def test_refusals(build, message):
    with pytest.raises(ValueError) as info:
        build()
    assert info.type is ValueError and str(info.value) == message
