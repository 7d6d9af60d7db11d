"""Legacy setup shim.

The canonical metadata (dependencies, the ``repro`` console script)
lives in ``pyproject.toml``. This file exists so
that environments without the ``wheel`` package (where pip's PEP 517
editable installs fail with "invalid command 'bdist_wheel'") can still
do ``python setup.py develop``.
"""

from setuptools import setup

setup()
