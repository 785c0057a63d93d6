"""A walk stops once its future is already checked (`gen._walk`).

The walk that stops must return what the walk that never stops returns,
findings and their steps included, and each of its two keys must stand
for the future it claims: a pipeline-empty state's key fixes the next
steps up to time, and a key past the program's end fixes them up to a
shift of addresses, ROB tags and time.  The first two also hold on a
small machine, whose pipeline empties without a squash too.  A walk
that checks the action audit alone must find the first unauthorized
fill that an audit never stopped early finds.
"""

import pytest

from teasim import asm, gen, ma, refine
from teasim.gen import Case, PROPERTIES
from teasim.isa import MASK32
from teasim.refine import AUTH_SPECS, r_a
from teasim.variants import is_initial

from conftest import on_small_machine, reference_walk

SEED, CASES = 3, 200
BUNDLED = [Case(asm.load_bundled(name)) for name in ("meltdown", "spectre")]


def cases(name: str, n: int = CASES) -> list[Case]:
    """The property's first n generated cases, then the bundled ones."""
    prop = PROPERTIES[name]
    cfg = prop.adjust(gen.GenConfig(seed=SEED))
    return [prop.gen(cfg, gen._trial_rng(SEED, name, i))
            for i in range(n)] + BUNDLED


# Each walk's id names its property, step limit, policy and per-step check.
WSK = pytest.param("wsk", 2500, False, None, gen._wsk_step,
                   id="wsk-2500-None-_wsk_step")
WSK_SAFE = pytest.param("wsk-safe", 2500, False, None, gen._wsk_step,
                        id="wsk-safe-2500-None-_wsk_step")
SPECTRE = pytest.param("spectre", 400, True, AUTH_SPECS["commit"],
                       gen._spectre_step,
                       id="spectre-400-auth_commit-_spectre_step")


@pytest.mark.parametrize("name, max_steps, observable, spec, per_step",
                         [WSK, WSK_SAFE, SPECTRE])
def test_walk_returns_what_the_full_walk_returns(name, max_steps, observable,
                                                 spec, per_step):
    closed = 0
    for case in cases(name):
        checked = 0

        def counted(s, u, info, wit, run):
            nonlocal checked
            checked += 1
            return per_step(s, u, info, wit, run)

        found = gen._walk(case, counted, max_steps)
        assert found == reference_walk(case, max_steps, observable, spec)
        _, full = ma.run_ma(gen.initial_state(case), max_steps)
        closed += checked < full and len(found) < 8
    assert closed >= 5


def first_audit_failure(case: Case, max_steps: int) -> list:
    """The first unauthorized fill of the case's run within max_steps,
    found by the commit policy's audit alone, never stopped early, each
    policy handed a fresh run from u."""
    s = gen.initial_state(case)
    for step in range(max_steps):
        if s.halt:
            break
        u, info = ma.step_core(s)
        cex = refine.check_cache_action(s, u, info, AUTH_SPECS["commit"],
                                        gen.Lookahead(u))
        if cex is not None:
            return [cex._replace(step=step)]
        s = u
    return []


def test_audit_alone_returns_what_its_full_walk_returns():
    # The keys close a walk that checks the audit alone as well, which
    # closes sooner than the full walk: only an audit finding keeps a
    # key's future open.  The audit reads any program, `in-cache` too.
    found_any = closed = 0
    until = ("action-soundness", None)
    for case in cases("spectre") + cases("wsk"):
        checked = 0

        def counted(s, u, info, wit, run):
            nonlocal checked
            checked += 1
            return gen._audit_step(s, u, info, wit, run)

        found = gen._walk(case, counted, 400, until)
        assert found == first_audit_failure(case, 400)
        _, full = ma.run_ma(gen.initial_state(case), 400)
        found_any += bool(found)
        closed += checked < full and not found
    assert found_any >= 100 and closed >= 5


def runs(name: str, max_steps: int):
    """Each case's run from its initial state: (top, states, infos),
    top being its highest instruction address."""
    for case in cases(name):
        s = gen.initial_state(case)
        states, infos = [s], []
        for _ in range(max_steps):
            if s.halt:
                break
            s, info = ma.step_core(s)
            states.append(s)
            infos.append(info)
        yield max(s.imem, default=-1), states, infos


def equal_key_pairs(name: str, max_steps: int, keyed) -> list:
    """(states, i, j) for i < j, states[i] and states[j] of one run
    having equal keys: keyed(top, states, infos, k) is state k's key or
    None.  Each key's first state is paired with its later ones."""
    pairs = []
    for top, states, infos in runs(name, max_steps):
        first: dict = {}
        for k in range(len(infos)):
            key = keyed(top, states, infos, k)
            if key is not None:
                i = first.setdefault(key, k)
                if i < k:
                    pairs.append((states, i, k))
    return pairs


def empty_key(top, states, infos, k):
    s = states[k]
    return gen._empty_key(s) if is_initial(s) else None


def assert_keys_fix_the_next_steps(pairs):
    assert len(pairs) >= 50
    for states, i, j in pairs:
        x, y = states[i], states[j]
        for _ in range(40):
            x, xi = ma.step_core(x)
            y, yi = ma.step_core(y)
            assert xi == yi and r_a(x) == r_a(y)


def test_equal_squash_keys_fix_the_next_steps():
    assert_keys_fix_the_next_steps(equal_key_pairs("wsk", 400, empty_key))


@pytest.fixture
def small_machine(monkeypatch, fresh_run):
    """gen.initial_state builds on the SMALL machine, whose pipeline
    also empties without a squash."""
    initial_state = gen.initial_state
    monkeypatch.setattr(gen, "initial_state",
                        lambda case: on_small_machine(initial_state(case)))


def test_equal_empty_keys_fix_the_next_steps_on_a_small_machine(
        small_machine):
    unsquashed = 0  # keyed states that no squash led to

    def keyed(top, states, infos, k):
        nonlocal unsquashed
        key = empty_key(top, states, infos, k)
        unsquashed += key is not None and k > 0 and not infos[k - 1].invalidated
        return key

    assert_keys_fix_the_next_steps(equal_key_pairs("wsk", 400, keyed))
    assert unsquashed >= 100


@pytest.mark.parametrize("name, max_steps, observable, spec, per_step",
                         [WSK_SAFE, SPECTRE])
def test_walk_on_a_small_machine_returns_what_the_full_walk_returns(
        small_machine, name, max_steps, observable, spec, per_step):
    for case in cases(name, 100):
        assert (gen._walk(case, per_step, max_steps)
                == reference_walk(case, max_steps, observable, spec))


def tail_key(top, states, infos, k):
    s = states[k]
    if top < s.pc <= s.fetch_pc:
        return gen._tail_key(s)
    return None


def shifted(x: ma.MaState, info: ma.StepInfo, pc0: int, tag0: int,
            cyc0: int) -> tuple:
    """A step of a run, with addresses relative to pc0, ROB tags to
    tag0 and times to cyc0."""
    space = x.params.rob_tag_space

    def pc(a):
        return (a - pc0) & MASK32

    def tag(t):
        return (t - tag0) % space

    return (
        r_a(x)._replace(pc=pc(x.pc)), pc(x.fetch_pc), (x.cyc - cyc0) & MASK32,
        info._replace(
            issued=tuple(r._replace(tag=tag(r.tag), ipc=pc(r.ipc))
                         for r in info.issued),
            writebacks=tuple(w._replace(dst=tag(w.dst))
                             for w in info.writebacks),
            batch=tuple(l._replace(rob_id=tag(l.rob_id)) for l in info.batch),
        ),
    )


def origin(s: ma.MaState) -> tuple[int, int, int]:
    """What a shift is measured from: pc, the ROB head's tag and cyc."""
    return s.pc, s.rob[0].rob_id if s.rob else 0, s.cyc


def assert_same_up_to_shift(x: ma.MaState, y: ma.MaState, steps: int):
    ox, oy = origin(x), origin(y)
    for _ in range(steps):
        x, xi = ma.step_core(x)
        y, yi = ma.step_core(y)
        assert shifted(x, xi, *ox) == shifted(y, yi, *oy)


def test_equal_tail_keys_fix_the_next_steps_up_to_the_shift():
    pairs = equal_key_pairs("wsk-safe", 400, tail_key)
    assert len(pairs) >= 50
    for states, i, j in pairs:
        assert_same_up_to_shift(states[i], states[j], 40)


def moved(s: ma.MaState, dpc: int, dtag: int, dcyc: int) -> ma.MaState:
    """s with its addresses, ROB tags and times shifted."""
    space = s.params.rob_tag_space

    def tag(t):
        return None if t is None else (t + dtag) % space

    return s._replace(
        pc=s.pc + dpc, fetch_pc=s.fetch_pc + dpc, cyc=(s.cyc + dcyc) & MASK32,
        rob=tuple(l._replace(rob_id=tag(l.rob_id)) for l in s.rob),
        rs_f=tuple(rs._replace(qj=tag(rs.qj), qk=tag(rs.qk), dst=tag(rs.dst),
                               rb_pc=rs.rb_pc + dpc,
                               cpc=(rs.cpc + dcyc) & MASK32)
                   for rs in s.rs_f),
        reg_st={r: tag(t) for r, t in s.reg_st.items()},
    )


@pytest.mark.parametrize("name", ["wsk", "wsk-safe", "spectre"])
def test_tail_states_hold_only_mnoops(name):
    # What _tail_key leaves out is fixed past the program's end: every
    # line in flight is a one-cycle mnoop with no operands and no
    # destination register, and the ROB's tags run on from the head's.
    checked = 0
    for top, states, _ in runs(name, 400):
        for s in states:
            if not top < s.pc <= s.fetch_pc:
                continue
            space = s.params.rob_tag_space
            assert s.reg_st == {}
            for k, line in enumerate(s.rob):
                tag = (s.rob[0].rob_id + k) % space
                assert line == (tag, "mnoop", None, line.rdy, 0, False)
            for rs in s.rs_f:
                if rs.busy:
                    assert (rs.mop, rs.qj, rs.qk, rs.vj, rs.vk) == (
                        "mnoop", None, None, 0, 0)
                    assert rs.dst == s.rob[rs.rb_pc - s.pc].rob_id
                    assert not rs.exec or rs.cpc == s.cyc
            checked += 1
    assert checked >= 400


def test_tail_key_takes_out_the_shift():
    # A tail state moved by a shift has its key and, up to the shift,
    # its run: so the key repeats once the run does.
    checked = 0
    for top, states, _ in runs("wsk-safe", 60):
        for s in [x for x in states if top < x.pc <= x.fetch_pc][:3]:
            for dpc, dtag, dcyc in [(5, 7, 11), (1, 19, MASK32)]:
                y = moved(s, dpc, dtag, dcyc)
                assert gen._tail_key(y) == gen._tail_key(s)
                assert_same_up_to_shift(s, y, 20)
                checked += 1
    assert checked >= 50


def test_shrunk_spectre_check_stops_in_the_noop_tail(monkeypatch):
    # The shrunk case has no halt, so its run leaves the program after
    # two instructions; the walk that never stops steps 400 times.
    case = Case(asm.parse(
        ".access 0 511\n.data 16 1\n.data 17 2\n.data 18 3\n.data 19 4\n"
        ".data 22 77\n.entry 0\njge r5 0\nldr r7 r2 r6\n"))
    calls = 0
    step_core = ma.step_core

    def counting(s):
        nonlocal calls
        calls += 1
        return step_core(s)

    monkeypatch.setattr(gen, "step_core", counting)
    monkeypatch.setattr(refine, "step_core", counting)
    found = PROPERTIES["spectre"].check(case)
    assert found and calls <= 30
