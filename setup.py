"""Legacy setup shim: lets `pip install -e .` work without the wheel package."""

from setuptools import find_packages, setup

setup(
    name="repro",
    version="1.0.0",
    description="Footprint Cache (ISCA 2013) reproduction: die-stacked DRAM cache simulator",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    # 3.10+: the hot-path types use dataclass(slots=True).
    python_requires=">=3.10",
    install_requires=["numpy"],
)
