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
SHA256 = "1097be240cf2f8c92cdf98636f1af56dcb766ce78d32faead27651649f562b1b"


def test_check_all_report_is_unchanged(capsys):
    assert main(ARGV) == EXIT_CODE
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SHA256
