"""Parameter validation and derived-quantity oracles."""

import math

import pytest

from imjrc.params import SystemParams, derive


def test_default_scenario_accounting(default_derived):
    d = default_derived
    assert d.card_zeta == 21
    assert d.card_P == 20
    assert d.C_total == 420
    assert d.B == 8
    assert d.Q == 164
    assert d.L_K == 3


def test_default_scenario_sampling(default_derived):
    assert default_derived.T_s == pytest.approx(1.0 / 7e7, rel=1e-12)
    # independent evaluation of the sample count
    assert default_derived.L_T == math.floor(1e-6 * 7 * 10e6) + 1 == 71


def test_antenna_spacing_is_ten_wavelengths(default_params, default_derived):
    wavelength = 3.0e8 / default_params.f_c
    assert default_derived.d_spacing == pytest.approx(10 * wavelength, rel=1e-12)


def test_degenerate_two_codeword_scenario():
    d = derive(SystemParams(M=2, K=1, L_R=2, L_C=1))
    assert d.card_zeta == 2
    assert d.card_P == 1
    assert d.C_total == 2
    assert d.B == 1
    assert d.Q == 0


def test_small_scenario(small_derived):
    assert small_derived.card_zeta == 3
    assert small_derived.card_P == 6
    assert small_derived.C_total == 18
    assert small_derived.B == 4
    assert small_derived.Q == 2
    assert small_derived.L_T == 13


@pytest.mark.parametrize(
    "kwargs",
    [
        {"M": 1, "K": 2},  # M < K
        {"K": 0},
        {"L_R": 5, "K": 2},  # not divisible
        {"M": 3, "K": 2, "L_R": 2},  # L_K = 1
        {"L_C": 0},
        {"f_c": 0.0},
        {"delta_f": -1.0},
        {"T_p": 3e-6, "T_r": 2e-6},  # pulse longer than interval
        {"T_p": 0.0},
        {"D": 0},
        {"master_seed": -1},
        {"theta": math.inf},
        {"f_c": math.inf},
        {"f_c": math.nan},
        {"delta_f": math.inf},
        {"T_p": math.nan},
        {"T_r": math.inf},
    ],
)
def test_invalid_params_rejected(kwargs):
    with pytest.raises(ValueError):
        SystemParams(**kwargs)


@pytest.mark.parametrize(
    "m,k,l_r",
    [(7, 2, 6), (3, 2, 4), (8, 2, 6), (6, 3, 9), (4, 1, 2), (5, 1, 3), (6, 2, 8)],
)
def test_counting_against_closed_forms(m, k, l_r):
    params = SystemParams(M=m, K=k, L_R=l_r)
    d = derive(params)
    l_k = l_r // k
    assert d.card_zeta == math.factorial(m) // (math.factorial(k) * math.factorial(m - k))
    assert d.card_P == math.factorial(l_r) // math.factorial(l_k) ** k
    assert d.C_total == d.card_zeta * d.card_P
    # B is the largest power of two not exceeding the codeword count
    assert 2**d.B <= d.C_total < 2 ** (d.B + 1)
    assert d.Q == d.C_total - 2**d.B
    assert (d.Q == 0) == (d.C_total & (d.C_total - 1) == 0)


def test_derive_is_pure(default_params):
    assert derive(default_params) == derive(default_params)
