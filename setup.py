"""Setup shim for environments without PEP 517 editable-build support.

The canonical project metadata lives in ``pyproject.toml``; this file
only enables legacy editable installs (``pip install -e . --no-use-pep517``)
on machines where PEP 517 editable builds are unavailable offline.
Because those environments ship a setuptools too old to read the
``[project]`` table, the minimum install metadata is repeated here —
keep the version in sync with ``pyproject.toml``.
"""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.6.0",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # PEP 561: ship the py.typed marker so downstream type-checkers
    # pick up the inline annotations.
    package_data={"repro": ["py.typed"]},
    include_package_data=True,
    zip_safe=False,
    python_requires=">=3.10",
    entry_points={"console_scripts": ["repro = repro.cli:main"]},
    extras_require={"numpy": ["numpy"]},
)
