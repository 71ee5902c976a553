import re
from pathlib import Path

import canids


def test_pyproject_version_is_the_package_version():
    """pyproject.toml is read with a regex: Python 3.10 has no tomllib."""
    text = (Path(__file__).resolve().parent.parent / "pyproject.toml").read_text()
    project = re.search(r"^\[project\]$(.*?)(?=^\[|\Z)", text, re.M | re.S).group(1)
    (version,) = re.findall(r'^version\s*=\s*"([^"]+)"\s*$', project, re.M)
    assert version == canids.__version__
