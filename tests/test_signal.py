"""Steering, waveform, and synthesis oracles."""

import cmath
import math

import numpy as np
import pytest

from imjrc.params import SystemParams, derive
from imjrc.signal import sampled_waveform, steering_vector
from oracles import synthesize_codeword


def test_steering_first_element_is_one(default_params):
    w = steering_vector(default_params)
    assert w[0] == 1.0 + 0.0j
    assert w.shape == (default_params.L_R,)


def test_steering_unit_modulus(default_params):
    w = steering_vector(default_params)
    np.testing.assert_allclose(np.abs(w), 1.0, rtol=1e-12)


def test_steering_matches_scalar_oracle(default_params):
    # spacing of 10 wavelengths makes the phase 20*pi*l*sin(theta)
    w = steering_vector(default_params)
    for l in range(default_params.L_R):
        expected = cmath.exp(1j * 20.0 * math.pi * l * math.sin(default_params.theta))
        assert w[l] == pytest.approx(expected, rel=1e-9)


def test_steering_broadside_all_ones():
    w = steering_vector(SystemParams(theta=0.0))
    np.testing.assert_allclose(w, np.ones(6), atol=1e-12)


def test_steering_carrier_frequency_cancels():
    a = steering_vector(SystemParams(f_c=1.9e9))
    b = steering_vector(SystemParams(f_c=3.7e9))
    np.testing.assert_allclose(a, b, rtol=1e-9)


def test_waveform_dc_is_constant(default_params, default_derived):
    np.testing.assert_array_equal(
        sampled_waveform(0, default_params, default_derived),
        np.ones(default_derived.L_T),
    )


def test_waveform_matches_geometric_oracle(default_params, default_derived):
    wf = sampled_waveform(3, default_params, default_derived)
    oracle = [cmath.exp(2j * math.pi * 3 * i / 7) for i in range(default_derived.L_T)]
    np.testing.assert_allclose(wf, oracle, rtol=1e-12)


def test_waveform_periodicity(default_params, default_derived):
    wf = sampled_waveform(1, default_params, default_derived)
    # one full cycle every M samples
    assert wf[7] == pytest.approx(1.0 + 0.0j, abs=1e-9)


def test_waveforms_orthogonal_over_full_periods(default_params, default_derived):
    a = sampled_waveform(1, default_params, default_derived)
    b = sampled_waveform(4, default_params, default_derived)
    # 70 samples = 10 periods; the 71st breaks exact orthogonality
    assert abs(np.vdot(a[:70], b[:70])) < 1e-9
    assert abs(np.vdot(a, b)) == pytest.approx(1.0, abs=1e-9)


def test_waveform_rejects_out_of_range(default_params, default_derived):
    with pytest.raises(ValueError):
        sampled_waveform(7, default_params, default_derived)
    with pytest.raises(ValueError):
        sampled_waveform(-1, default_params, default_derived)


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
    params = SystemParams(M=2, K=1, L_R=2, L_C=1)
    derived = derive(params)
    x = synthesize_codeword((1,), (0, 0), params, derived)
    w = steering_vector(params)
    wf = sampled_waveform(1, params, derived)
    np.testing.assert_allclose(x, np.outer(w, wf) / math.sqrt(2), rtol=1e-12)


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
