"""Span tracer for the benchmark's traced pass.

It wraps teasim's public functions at the module bindings their callers
use (`refine.step_core`, `gen.check_wsk_transition`, ...), and the
callables stored in the registries `refine.AUTH_SPECS` and
`gen.PROPERTIES`, so no code under src/ changes.  Functions are looked
up by name: a span none of whose functions exists is reported absent,
so a later refactor that merges or renames one does not crash the pass.

Spans nest on one stack (teasim is single-threaded).  Each call records
its parent span, which is how every `ma.step_core` call is attributed
to exactly one caller, and a span's self time is its duration minus the
time its child spans cover.  Install it only in a process of its own:
the wrappers stay for the life of the process.
"""

from __future__ import annotations

import dataclasses
import time
from collections import Counter, defaultdict

# span -> the (module, attribute) bindings of the functions it times.
FUNCTION_SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "isa.step": (("isa", "isa_det_step"), ("isa", "isa_step")),
    "ma.step_core": (("ma", "step_core"),),
    "variants.mah_step": (("variants", "mah_step"), ("variants", "mah_step_info")),
    "variants.is_entangled": (("variants", "is_entangled"),),
    "refine.check_wsk": (("refine", "check_wsk_transition"),),
    "refine.check_wsk_a": (("refine", "check_wsk_a_transition"),),
    "refine.stutter_wit": (("refine", "stutter_wit"),),
    "refine.run_ic": (("refine", "run_ic"), ("refine", "run_ic_c")),
    "gen.shrink": (("gen", "shrink"),),
}
# Spans over registry entries: every authorization policy, and the
# generator and trial-level checker of every property.
AUTH_SPAN = "refine.auth"
PROPERTY_SPANS = {"gen": "gen.generate", "check": "gen.check"}

SPAN_NAMES = (
    "isa.step", "ma.step_core", "variants.mah_step", "variants.is_entangled",
    "refine.check_wsk", "refine.check_wsk_a", "refine.stutter_wit",
    "refine.run_ic", AUTH_SPAN, "gen.generate", "gen.check", "gen.shrink",
)
TOP = "none"  # parent name of a span entered with no span open


class _Frame:
    __slots__ = ("name", "start", "child", "obligation")

    def __init__(self, name: str, start: float, obligation) -> None:
        self.name = name
        self.start = start
        self.child = 0.0  # seconds covered by child spans
        self.obligation = obligation  # what a gen.shrink span preserves


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.stack: list[_Frame] = []
        self.calls: Counter = Counter()
        self.total: defaultdict = defaultdict(float)
        self.self_s: defaultdict = defaultdict(float)
        self.parents: defaultdict = defaultdict(Counter)  # span -> parent -> calls
        self.top_level: list[tuple[str, float]] = []  # spans with no parent, in order
        self.shrink_tried = 0
        self.shrink_hits = 0  # candidates still failing the same obligation
        self.present: set[str] = set()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self.stack
            parent = stack[-1] if stack else None
            if parent is not None and parent.name == name:
                return fn(*args, **kwargs)  # isa_step -> isa_det_step: one span
            obligation = None
            if name == "gen.shrink":
                obligation = kwargs.get("obligation", args[2] if len(args) > 2 else None)
            frame = _Frame(name, self.clock(), obligation)
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                self._close(frame, parent)
            if name == "gen.check" and parent is not None and parent.name == "gen.shrink":
                self.shrink_tried += 1
                if any(getattr(f, "obligation", None) == parent.obligation for f in result):
                    self.shrink_hits += 1
            return result

        return traced

    def _close(self, frame: _Frame, parent: _Frame | None) -> None:
        dur = self.clock() - frame.start
        name = frame.name
        self.calls[name] += 1
        self.total[name] += dur
        self.self_s[name] += dur - frame.child
        self.parents[name][parent.name if parent else TOP] += 1
        if parent is None:
            self.top_level.append((name, dur))
        else:
            parent.child += dur

    def install(self, modules: dict) -> None:
        """Wrap every span's functions in `modules` (short name -> module)
        and rebind each wrapper wherever a module holds the original.
        A span none of whose functions exists stays absent."""
        for span, bindings in FUNCTION_SPANS.items():
            for mod, attr in bindings:
                fn = getattr(modules.get(mod), attr, None)
                if callable(fn):
                    wrapper = self.wrap(span, fn)
                    for m in modules.values():
                        for key, value in list(vars(m).items()):
                            if value is fn:
                                setattr(m, key, wrapper)
                    self.present.add(span)
        specs = getattr(modules.get("refine"), "AUTH_SPECS", None)
        if isinstance(specs, dict):
            for key, fn in list(specs.items()):
                specs[key] = self.wrap(AUTH_SPAN, fn)
                self.present.add(AUTH_SPAN)
        props = getattr(modules.get("gen"), "PROPERTIES", None)
        if isinstance(props, dict):
            for key, prop in list(props.items()):
                if not dataclasses.is_dataclass(prop):
                    continue
                fields = {f: self.wrap(span, getattr(prop, f))
                          for f, span in PROPERTY_SPANS.items()
                          if callable(getattr(prop, f, None))}
                props[key] = dataclasses.replace(prop, **fields)
                self.present.update(PROPERTY_SPANS[f] for f in fields)

    def trial_check_ms(self) -> list[float]:
        """Durations of trial-level checks: top-level gen.check spans,
        except the re-verification run_property makes right after a
        top-level shrink."""
        out = []
        prev = None
        for name, dur in self.top_level:
            if name == "gen.check" and prev != "gen.shrink":
                out.append(dur * 1000)
            prev = name
        return out

    def summary(self) -> dict:
        return {
            "spans": {
                s: {"calls": self.calls[s], "total_s": self.total[s],
                    "self_s": self.self_s[s]}
                for s in SPAN_NAMES
            },
            "parents": {s: dict(p) for s, p in self.parents.items()},
            "trial_ms": self.trial_check_ms(),
            "shrink_tried": self.shrink_tried,
            "shrink_hits": self.shrink_hits,
            "absent": [s for s in SPAN_NAMES if s not in self.present],
        }
