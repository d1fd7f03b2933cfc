"""Build script; the package is pure Python and all metadata is in pyproject.toml."""

from setuptools import setup

setup()
