"""Tests of the benchmark's own arithmetic.  Run: python3 -m pytest perfbench"""

import json
import os
import sys
from types import SimpleNamespace

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import at_nominal_speed, layer_metrics  # noqa: E402
from worker import REFERENCE_NOMINAL_S  # noqa: E402
from tracer import SPAN_NAMES, Tracer  # noqa: E402
from workloads import WORKLOADS, random_tea_hits, trials_run, verdict_ok  # noqa: E402


def _failures(*trials):
    return [{"trial": t, "findings": []} for t in trials]


def test_trials_run_stopped_at_max_failures_counts_to_last_failure():
    # spectre-buggy at 300 trials stops after trial 28 with 10 failures,
    # one of them the bundled seed (trial -1).
    failures = _failures(-1, 2, 10, 11, 12, 14, 19, 23, 24, 28)
    assert trials_run(failures, 300, 10) == 29


def test_trials_run_without_early_stop_is_the_configured_count():
    assert trials_run(_failures(-1, 4), 300, 10) == 300
    assert trials_run([], 20, 10) == 20
    # Bundled failures alone reaching the limit do not stop the loop.
    assert trials_run(_failures(-2, -1), 20, 2) == 20


def _doc(*failures):
    return {"reports": [{"failures": [
        {"trial": t, "findings": [{"obligation": o, "kind": k, "detail": ""}]}
        for t, o, k in failures
    ]}]}


def test_verdict_table():
    spec = WORKLOADS["spectre-audit"]
    leak = _doc((-1, "wsk-run", "tea-meltdown"))
    fill = _doc((-1, "action-soundness", "tea-spectre"))
    assert verdict_ok(spec, 1, fill)
    assert not verdict_ok(spec, 0, fill)
    assert not verdict_ok(spec, 1, leak)
    for name in ("clean-sweep", "entangled-replay"):
        assert verdict_ok(WORKLOADS[name], 0, _doc())
        assert not verdict_ok(WORKLOADS[name], 1, _doc((3, "wsk-match", "functional")))
        assert not verdict_ok(WORKLOADS[name], 0, None)


def test_random_tea_hits_skip_bundled_and_functional_failures():
    doc = _doc((-1, "wsk-run", "tea-meltdown"), (3, "wsk-run", "tea-meltdown"),
               (5, "wsk-match", "functional"))
    assert random_tea_hits(doc) == 1


def test_benchmark_json_names_the_workloads():
    path = os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json")
    with open(path) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_samples_scale_by_the_probe_around_them():
    slow = {"seconds": 2.0, "ref_s": 2 * REFERENCE_NOMINAL_S}
    fast = {"seconds": 0.5, "ref_s": REFERENCE_NOMINAL_S / 2}
    assert at_nominal_speed([slow, fast]) == [1.0, 1.0]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_is_span_minus_covered_child_time():
    clock = FakeClock()
    tracer = Tracer(clock)

    def step_core():
        clock.t += 2.0

    inner = tracer.wrap("ma.step_core", step_core)

    def stutter_wit():
        clock.t += 1.0
        inner()
        inner()
        clock.t += 0.5

    outer = tracer.wrap("refine.stutter_wit", stutter_wit)
    outer()
    assert tracer.calls["refine.stutter_wit"] == 1
    assert tracer.total["refine.stutter_wit"] == 5.5
    assert tracer.self_s["refine.stutter_wit"] == 1.5
    assert tracer.total["ma.step_core"] == tracer.self_s["ma.step_core"] == 4.0
    assert tracer.parents["ma.step_core"] == {"refine.stutter_wit": 2}
    assert tracer.top_level == [("refine.stutter_wit", 5.5)]


def test_reentrant_call_of_the_same_span_is_one_call():
    clock = FakeClock()
    tracer = Tracer(clock)

    def det():
        clock.t += 1.0

    ns = SimpleNamespace()
    ns.det = tracer.wrap("isa.step", det)

    def full():
        ns.det()
        clock.t += 1.0

    tracer.wrap("isa.step", full)()
    assert tracer.calls["isa.step"] == 1
    assert tracer.self_s["isa.step"] == 2.0


def test_shrink_candidates_and_trial_checks():
    clock = FakeClock()
    tracer = Tracer(clock)
    check = tracer.wrap("gen.check", lambda fails: [SimpleNamespace(obligation=o) for o in fails])

    def shrink(prop, case, obligation):
        check(["wsk-run"])
        check(["wsk-match"])
        check([])

    shrink = tracer.wrap("gen.shrink", shrink)
    check(["wsk-run"])  # trial check that fails
    shrink(None, None, "wsk-run")
    check(["wsk-run"])  # run_property's re-verification of the shrunk case
    check([])  # next trial
    assert (tracer.shrink_tried, tracer.shrink_hits) == (3, 1)
    assert len(tracer.trial_check_ms()) == 2


def test_absent_spans_are_reported_not_fatal():
    clock = FakeClock()

    def step_core():
        clock.t += 1.0

    ma = SimpleNamespace(step_core=step_core)
    # gen holds step_core under its own name, as `from .ma import step_core` does.
    gen = SimpleNamespace(step_core=step_core, PROPERTIES={})
    refine = SimpleNamespace(AUTH_SPECS={"commit": lambda *a: ()})
    tracer = Tracer(clock)
    tracer.install({"ma": ma, "gen": gen, "refine": refine})
    assert gen.step_core is ma.step_core is not step_core
    gen.step_core()
    assert tracer.calls["ma.step_core"] == 1

    summary = tracer.summary()
    absent = summary["absent"]
    assert "ma.step_core" not in absent and "refine.auth" not in absent
    assert "refine.check_wsk_a" in absent and "gen.check" in absent
    metrics = layer_metrics(summary, [], 0.0)
    assert metrics["trace.absent_spans"] == (len(absent), "count")
    assert metrics["refine.check_wsk_a.calls"] == (0, "count")
    assert metrics["ma.step_core.from.other"] == (1, "count")
    assert metrics["refine.retiring_share"] == (0.0, "ratio")
    assert all(f"{s}.self_s" in metrics for s in SPAN_NAMES)
