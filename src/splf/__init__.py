"""splf: spectral Galerkin simulation and verification of stochastic
power-law fluids on the periodic torus."""

__version__ = "0.1.0"
