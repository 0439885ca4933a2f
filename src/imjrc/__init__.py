"""Index-modulation joint radar-communication link simulator.

Information rides on which K of M carriers a pulse activates and on how
the transmit antennas are split across them.  The package enumerates the
resulting codewords, designs codebooks by greedy minimum-distance pruning
and by constellation-randomization pre-scaling, and measures bit error
rates of ML detection over Rayleigh fading.
"""

__version__ = "0.1.0"

from .codebook import greedy_prune
from .crps import Scheme, SchemeBuild, TpsFactor, build_scheme, build_schemes, generate_tps
from .enumeration import CodewordTable, build_table
from .params import DerivedParams, SystemParams, derive
from .sim import BerRecord, GainReport, measure_gain, run_ber

__all__ = [
    "BerRecord",
    "CodewordTable",
    "DerivedParams",
    "GainReport",
    "Scheme",
    "SchemeBuild",
    "SystemParams",
    "TpsFactor",
    "build_scheme",
    "build_schemes",
    "build_table",
    "derive",
    "generate_tps",
    "greedy_prune",
    "measure_gain",
    "run_ber",
]
