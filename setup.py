"""Package metadata (there is no ``pyproject.toml``).

A plain ``setup.py`` so that ``pip install -e .`` works in offline
environments whose pip/setuptools cannot build PEP 517 editable wheels
(no ``wheel`` package available). CI installs the package this way, which
makes ``install_requires`` below the single list of runtime dependencies.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.1.0",
    description=(
        "ASYNC: a cloud engine with asynchrony and history for distributed "
        "machine learning (IPDPS 2020) - full Python reproduction"
    ),
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    python_requires=">=3.10",
    install_requires=["numpy>=1.24", "scipy>=1.10"],
)
