"""Quantized ULA signal reconstruction with MUSIC-scored evaluation."""

__version__ = "0.1.0"
