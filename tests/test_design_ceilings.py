"""Design ceilings: counts of the code that a change may lower, never raise.

Each ceiling is the count the code had when it was last lowered.  A change
that lowers a count lowers its ceiling here in the same change (and says so
in CHANGES.md); a change that raises one fails this test.
"""

from __future__ import annotations

import re
from pathlib import Path

from repro.core import BlobSeerConfig
from repro.net.server import ROLES

SRC = Path(__file__).resolve().parent.parent / "src"

#: Lines in ``src/**/*.py``.
SRC_LINES = 18_011
#: ``except Exception`` sites in ``src/``: each one treats a bug like a fault.
EXCEPT_EXCEPTION_SITES = 34
#: Independently settable configuration values.
SETTABLE_CONFIG_VALUES = 31
#: Distinct RPC method names served across every server role.
RPC_METHOD_NAMES = 53


def _sources():
    return [path.read_text() for path in sorted(SRC.rglob("*.py"))]


def test_source_lines_stay_under_ceiling():
    lines = sum(text.count("\n") for text in _sources())
    assert lines <= SRC_LINES


def test_except_exception_sites_stay_under_ceiling():
    pattern = re.compile(r"except\s+Exception\b")
    sites = sum(len(pattern.findall(text)) for text in _sources())
    assert sites <= EXCEPT_EXCEPTION_SITES


def test_settable_config_values_stay_under_ceiling():
    assert len(BlobSeerConfig().to_dict()) <= SETTABLE_CONFIG_VALUES


def test_rpc_method_names_stay_under_ceiling():
    # Building a role's handler table starts no thread, process or socket.
    names = set()
    for make_handlers in ROLES.values():
        names |= set(make_handlers(0, BlobSeerConfig()))
    assert len(names) <= RPC_METHOD_NAMES
