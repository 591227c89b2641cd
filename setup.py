"""Setuptools build script.

The execution environment has setuptools but not the ``wheel`` package, so
PEP 660 editable installs (which build a wheel) are unavailable.  Keeping a
``setup.py`` lets ``pip install -e .`` fall back to the legacy
``setup.py develop`` path, which works offline.

The optional C extension ``repro._native._core`` (the compiled CDCL solver
core) is declared ``optional=True``: a missing compiler must never break
the pure-Python install.  Build it in place with::

    python setup.py build_ext --inplace

which drops the ``.so`` next to ``src/repro/_native/__init__.py`` so that
``PYTHONPATH=src`` runs pick it up.
"""

from setuptools import Extension, find_packages, setup

setup(
    name="repro",
    version="0.10.0",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages("src"),
    ext_modules=[
        Extension(
            "repro._native._core",
            sources=["src/repro/_native/_core.c"],
            optional=True,
        )
    ],
)
