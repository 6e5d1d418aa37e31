"""Setup shim.

All metadata lives in ``pyproject.toml``; this file exists so that
``python setup.py develop`` still works on environments without the
``wheel`` package (PEP 660 editable installs via setuptools < 70.1,
and pip's ``--no-use-pep517`` path, both require it).
"""

from setuptools import setup

setup()
