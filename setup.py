"""Build script; all metadata lives in pyproject.toml."""

from setuptools import setup

setup()
