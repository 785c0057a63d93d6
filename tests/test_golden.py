"""Golden report: the `check --json` report of a fixed run, pinned by digest.

The run covers all five properties.  Any change to what the checkers
find, to the order they find it in, or to the report format changes the
digest, so a refactor or speed-up that claims byte-identical reports is
held to it.  Update the digest only with a change that means to alter
reports, and say why in that change.
"""

import hashlib

from teasim.cli import main

ARGV = ["check", "--suite", "all", "--trials", "40", "--seed", "3", "--json"]
EXIT_CODE = 1  # the buggy suites report counterexamples
SHA256 = "973994ec05d5889bfbaf8bb65cb845b0e1ed8765122d15078d09d21076410a96"


def test_check_all_report_is_unchanged(capsys):
    assert main(ARGV) == EXIT_CODE
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SHA256
