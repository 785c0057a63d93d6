"""Golden report: the `check --json` report of a fixed run, pinned by digest.

The run covers all seven properties.  Any change to what the checkers
find, to the order they find it in, or to the report format changes the
digest, so a refactor or speed-up that claims byte-identical reports is
held to it.  Update the digest only with a change that means to alter
reports, and say why in that change.
"""

import hashlib

from teasim.cli import main

ARGV = ["check", "--suite", "all", "--trials", "40", "--seed", "3", "--json"]
EXIT_CODE = 1  # the buggy suites report counterexamples
SHA256 = "ff05bcfb27bf0dc93b99e508dd6a6138dfaa7ce6f4158013fd8c82755f9b062e"


def test_check_all_report_is_unchanged(capsys):
    assert main(ARGV) == EXIT_CODE
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SHA256
