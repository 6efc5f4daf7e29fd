"""Union-Find surface-code decoder and a read-count model of its three-stage
hardware pipeline."""

__version__ = "0.1.0"

from .lattice import LatticeParams, DecodingGraph, build_decoding_graph  # noqa: F401
from .noise import NoiseParams, ErrorPattern, Syndrome  # noqa: F401
