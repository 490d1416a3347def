"""Shared fixtures.

``validate --level full`` is the slowest command of the suite; one run
serves both the acceptance tests and the CLI exit-code test.
"""

import collections

import pytest

from qbmag import cli
from qbmag.validation import ValidationReport

FullValidation = collections.namedtuple("FullValidation", "exit_code text report")


@pytest.fixture(scope="session")
def full_validation(tmp_path_factory):
    out = tmp_path_factory.mktemp("validate") / "full.json"
    code = cli.main(["validate", "--level", "full", "--out", str(out)])
    text = out.read_text()
    return FullValidation(code, text, ValidationReport.from_json(text))
