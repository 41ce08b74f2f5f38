"""Package definition.

``pip install -e .`` gives an importable ``repro`` (no PYTHONPATH=src
needed) plus the ``repro`` console entry point::

    repro solve instance.json
    repro solve a.json b.json --batch --workers 4
"""

from setuptools import find_packages, setup

setup(
    name="busytime-repro",
    version="1.0.0",
    description=(
        "Reproduction of 'Optimizing Busy Time on Parallel Machines' "
        "(Mertzios et al., IPDPS 2012) with a vectorized batch solver "
        "engine"
    ),
    python_requires=">=3.9",
    package_dir={"": "src"},
    packages=find_packages("src"),
    install_requires=["numpy"],
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
)
