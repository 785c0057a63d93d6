"""The benchmark's workloads and the known answer of each verdict.

A workload is one `teasim check` suite run as a sequence of small
verdicts, each on its own check seed derived from the benchmark seed.
Small verdicts keep the per-run median steady: random trials have a
heavy-tailed cost (a looping program walks 2500 steps), so one large
verdict per run would measure which seeds drew long walks, not speed.

Everything here is pure data and arithmetic over `--json` reports, so it
imports nothing from teasim and the tests can check it directly.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    suite: str
    trials: int  # random trials per verdict (`check --trials`)
    exit_code: int  # the known exit code of every verdict
    # (field, value) that at least one finding of the report must carry;
    # None means the known answer is "no failures at all".
    finding: tuple[str, str] | None
    traced_verdicts: int  # verdicts in the fixed-size traced pass


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("spectre-audit", "spectre-buggy", 1, 1,
                 ("obligation", "action-soundness"), 8),
        Workload("clean-sweep", "meltdown-safe", 10, 0, None, 30),
        Workload("entangled-replay", "entangled", 20, 0, None, 40),
    )
}


def check_seed(seed: int, j: int) -> int:
    """Check seed of the j-th verdict of a run with benchmark seed `seed`."""
    return seed * 1000 + j


def findings(doc: dict):
    for report in doc["reports"]:
        for failure in report["failures"]:
            yield from failure["findings"]


def verdict_ok(w: Workload, exit_code: int, doc: dict | None) -> bool:
    """Whether a verdict gives the workload's known answer."""
    if exit_code != w.exit_code or doc is None:
        return False
    if w.finding is None:
        return not any(r["failures"] for r in doc["reports"])
    field, value = w.finding
    return any(f.get(field) == value for f in findings(doc))


def trials_run(failures: list[dict], configured: int, max_failures: int) -> int:
    """Random trials a property actually ran, read from its failures.

    The report's own `trials` echoes the configured count even when the
    loop stopped at `max_failures`; then the count is the last failing
    trial + 1.  Bundled seed cases carry negative trial numbers and are
    not random trials.
    """
    if len(failures) >= max_failures and failures and failures[-1]["trial"] >= 0:
        return failures[-1]["trial"] + 1
    return configured


def random_tea_hits(doc: dict) -> int:
    """Random (non-bundled) trials whose findings include a `tea-` kind."""
    return sum(
        1
        for report in doc["reports"]
        for f in report["failures"]
        if f["trial"] >= 0 and any(x["kind"].startswith("tea-") for x in f["findings"])
    )
