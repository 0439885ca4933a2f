"""Shared fixtures: the default scenario, a small fast one and the design-large table."""

import pytest

from imjrc.channel import TAG_DESIGN_CHANNEL, draw_channel, substream
from imjrc.crps import Scheme, build_scheme
from imjrc.enumeration import build_table
from imjrc.params import SystemParams, derive

# one verdict line per acceptance check, echoed after the run so the
# outcome is visible even with output capture on
ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def default_params():
    return SystemParams()


@pytest.fixture(scope="session")
def default_derived(default_params):
    return derive(default_params)


@pytest.fixture(scope="session")
def default_table(default_params, default_derived):
    return build_table(default_params, default_derived)


@pytest.fixture(scope="session")
def small_params():
    # 18 codewords, 16 valid, L_T = 13: cheap enough for exhaustive checks
    return SystemParams(M=3, K=2, L_R=4, L_C=2, delta_f=4e6, D=8, master_seed=99)


@pytest.fixture(scope="session")
def small_derived(small_params):
    return derive(small_params)


@pytest.fixture(scope="session")
def small_table(small_params, small_derived):
    return build_table(small_params, small_derived)


@pytest.fixture(scope="session")
def design_large_table():
    # M=8, L_R=8: 1,960 codewords, 1,024 valid
    params = SystemParams(M=8, L_R=8)
    return build_table(params, derive(params))


@pytest.fixture(scope="session")
def default_scaled_build(default_params, default_table):
    """crps_then_codebook designed through the seeded channel: a pruned
    member set under a selected, non-identity pre-scaling factor."""
    channel = draw_channel(
        default_params.L_C,
        default_params.L_R,
        substream(default_params.master_seed, TAG_DESIGN_CHANNEL),
    )
    return build_scheme(Scheme.CRPS_THEN_CODEBOOK, default_table, design_channel=channel)
