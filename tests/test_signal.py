"""The codeword table's steering weights and carrier waveforms, and the synthesis oracle."""

import cmath
import math

import numpy as np
import pytest

from imjrc.enumeration import build_table
from imjrc.params import SystemParams, derive
from oracles import synthesize_codeword


def _table(**changes):
    params = SystemParams(**changes)
    return build_table(params, derive(params))


def test_steering_first_element_is_one(default_table, default_params):
    w = default_table.steering
    assert w[0] == 1.0 + 0.0j
    assert w.shape == (default_params.L_R,)


def test_steering_unit_modulus(default_table):
    np.testing.assert_allclose(np.abs(default_table.steering), 1.0, rtol=1e-12)


def test_steering_matches_scalar_oracle(default_table, default_params):
    # spacing of 10 wavelengths makes the phase 20*pi*l*sin(theta)
    w = default_table.steering
    for l in range(default_params.L_R):
        expected = cmath.exp(1j * 20.0 * math.pi * l * math.sin(default_params.theta))
        assert w[l] == pytest.approx(expected, rel=1e-9)


def test_steering_broadside_all_ones():
    np.testing.assert_allclose(_table(theta=0.0).steering, np.ones(6), atol=1e-12)


def test_steering_carrier_frequency_cancels():
    a = _table(f_c=1.9e9).steering
    b = _table(f_c=3.7e9).steering
    np.testing.assert_allclose(a, b, rtol=1e-9)


def test_waveform_dc_is_constant(default_table, default_params, default_derived):
    assert default_table.waveforms.shape == (default_params.M, default_derived.L_T)
    np.testing.assert_array_equal(default_table.waveforms[0], np.ones(default_derived.L_T))


def test_waveform_matches_geometric_oracle(default_table, default_derived):
    oracle = [cmath.exp(2j * math.pi * 3 * i / 7) for i in range(default_derived.L_T)]
    np.testing.assert_allclose(default_table.waveforms[3], oracle, rtol=1e-12)


def test_waveform_periodicity(default_table):
    # one full cycle every M samples
    assert default_table.waveforms[1, 7] == pytest.approx(1.0 + 0.0j, abs=1e-9)


def test_waveforms_orthogonal_over_full_periods(default_table):
    a, b = default_table.waveforms[1], default_table.waveforms[4]
    # 70 samples = 10 periods; the 71st breaks exact orthogonality
    assert abs(np.vdot(a[:70], b[:70])) < 1e-9
    assert abs(np.vdot(a, b)) == pytest.approx(1.0, abs=1e-9)


def test_synthesize_matches_elementwise_oracle(default_params, default_derived):
    subset, alloc = (0, 1), (0, 0, 0, 1, 1, 1)
    x = synthesize_codeword(subset, alloc, default_params, default_derived)
    sin_t = math.sin(default_params.theta)
    for l in range(default_params.L_R):
        c = subset[alloc[l]]
        for i in range(0, default_derived.L_T, 17):
            expected = (
                cmath.exp(1j * 20.0 * math.pi * l * sin_t)
                * cmath.exp(2j * math.pi * c * i / default_params.M)
                / math.sqrt(default_params.L_R)
            )
            assert x[l, i] == pytest.approx(expected, rel=1e-9)


def test_synthesize_norm_is_sample_count(default_params, default_derived):
    x = synthesize_codeword((2, 5), (1, 0, 1, 0, 1, 0), default_params, default_derived)
    assert np.linalg.norm(x) ** 2 == pytest.approx(default_derived.L_T, rel=1e-9)


def test_synthesize_single_carrier():
    table = _table(M=2, K=1, L_R=2, L_C=1)
    x = synthesize_codeword((1,), (0, 0), table.params, table.derived)
    np.testing.assert_allclose(x, np.outer(table.steering, table.waveforms[1]) / math.sqrt(2), rtol=1e-12)
    # subsets (0,) and (1,), one allocation: codeword 1 is carrier 1 on both antennas
    composed = table.steering[:, None] * table.waveforms[table.carriers[1]] / np.sqrt(2)
    np.testing.assert_array_equal(composed, x)


@pytest.mark.parametrize(
    "subset,alloc",
    [
        ((0,), (0, 0, 0, 1, 1, 1)),  # wrong subset size
        ((1, 0), (0, 0, 0, 1, 1, 1)),  # not increasing
        ((0, 0), (0, 0, 0, 1, 1, 1)),  # duplicate
        ((0, 1), (0, 0, 0, 1, 1)),  # wrong length
        ((0, 1), (0, 0, 0, 0, 1, 1)),  # unbalanced
        ((0, 1), (0, 0, 0, 1, 1, 2)),  # slot out of range
    ],
)
def test_synthesize_rejects_bad_inputs(default_params, default_derived, subset, alloc):
    with pytest.raises(ValueError):
        synthesize_codeword(subset, alloc, default_params, default_derived)
