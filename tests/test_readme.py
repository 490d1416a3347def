"""The README's Public API list names every exported name once, in order."""

import re
from pathlib import Path

import qbmag

README = Path(__file__).resolve().parents[1] / "README.md"


def test_public_api_list_equals_all():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    names = re.findall(r"^- `(\w+)`: \S", section, flags=re.MULTILINE)
    assert names == list(qbmag.__all__)
