"""Log products of toric pairs, logarithmic HKR tables, and a symbolic
calculus of strong Fourier-Mukai-type kernels."""

__version__ = "0.1.0"
