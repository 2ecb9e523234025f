"""Respiratory-resolved 4D reconstruction from interleaved 2D navigator scans."""

__version__ = "0.1.0"
