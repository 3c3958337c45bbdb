"""``tools/test_only.txt``: every row names a function and one keep class
of (b)-(f), with its reason.  (CI's test-only-surface job checks that the
names are exactly the audited test-only functions; this checks the rows'
shape without the audits.)"""

from __future__ import annotations

import re
from pathlib import Path

TEST_ONLY = Path(__file__).resolve().parents[2] / "tools" / "test_only.txt"
ROW = re.compile(r"repro/\S+\.py::\S+  \([b-f]\) \S.*")


def test_every_row_has_a_keep_class_b_to_f_and_a_reason():
    rows = [line for line in TEST_ONLY.read_text().splitlines()
            if line and not line.startswith("#")]
    assert rows
    assert [row for row in rows if not ROW.fullmatch(row)] == []
    names = [row.split()[0] for row in rows]
    assert names == sorted(set(names))
