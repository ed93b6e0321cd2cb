"""Installing a context by value equals parsing and asserting its specs.

:meth:`AboxContext.install` takes a context as an interned
:class:`~repro.engine.backends.ContextValue` and splices its prebuilt
assertions in; a session that flips back to a value it held reuses the
assertions, their signature rows and the context signature.  These tests
replay random install sequences on two deep copies of one world — one
installed by value, one by the general path (parse every spec, clear the
dynamic rows, ``assert_concept`` each spec in order) — flat and under a
:class:`~repro.dl.abox.LayeredABox` overlay, on both kernel backends, and
after every step compare the dynamic assertions, the context signature,
the engine's ``view_fingerprint()`` and the ranked scores, bit for bit.

The draws cover spec order and duplicate concepts; certain, ``1.0``,
``0.0`` and ``-0.0`` probabilities; two ticks over the same specs;
flip-backs to earlier contexts and their concepts under new
probabilities; a static fact about the user asserted
mid-sequence, which a later spec merges into; and, under the overlay, a
base dynamic row about the user that a spec shadows.
"""

from __future__ import annotations

import copy
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dl import ABox, TBox
from repro.dl.concepts import atomic, intersect, one_of, some, union
from repro.engine import EngineBuilder, RankRequest
from repro.engine.backends import (
    _context_atom,
    context_counters,
    context_value,
    parse_context_spec,
)
from repro.events import EventSpace
from repro.reason import clear_registry
from repro.rules import PreferenceRule, RuleRepository

from tests.property.test_columnar_identity import BACKENDS, kernel_backend

#: More documents than VECTOR_MIN, so the numpy backend compiles vectors.
DOCUMENTS = 70
NAMES = ("C0", "C1", "C2", "C3")
GENRES = ("G0", "G1", "G2")
PROBABILITIES = ("", ":1.0", ":1", ":0", ":0.0", ":-0.0", ":0.3", ":0.7")
TICKS = ("ctx", "svc")
GENRE = {genre: atomic("TvProgram") & some("hasGenre", one_of(genre)) for genre in GENRES}
#: (context, preference, sigma): one rule per context shape, one of them
#: reading a context name on the documents.
RULES = (
    (atomic("C0"), GENRE["G0"], 0.9),
    (atomic("C1"), GENRE["G1"], 0.2),
    (intersect([atomic("C2"), atomic("C3")]), GENRE["G2"], 0.7),
    (union([atomic("C1"), atomic("C3")]), atomic("TvProgram") & atomic("C2"), 0.4),
)


def build_world(base_dynamic: bool):
    """70 programs with genres and a user ``u``; with ``base_dynamic``, a
    sensed ``C1(u)`` row the overlay's installs of ``C1`` shadow."""
    space, abox, tbox = EventSpace(), ABox(), TBox()
    for index in range(DOCUMENTS):
        document = f"d{index:02d}"
        abox.assert_concept("TvProgram", document)
        abox.assert_role(
            "hasGenre", document, GENRES[index % 3], space.atom(f"g{index}", 0.2 + index / 100)
        )
        if index % 5 == 0:
            abox.assert_concept("C2", document)
    abox.register_individual("u")
    if base_dynamic:
        abox.assert_concept("C1", "u", space.atom("sensed", 0.45), dynamic=True)
    rules = RuleRepository(
        PreferenceRule(f"r{index}", context, preference, sigma)
        for index, (context, preference, sigma) in enumerate(RULES)
    )
    return abox, tbox, space, rules


def make_engine(world, layered: bool):
    abox, tbox, space, rules = copy.deepcopy(world)
    box = abox.freeze().overlay() if layered else abox
    return (
        EngineBuilder().knowledge(box, tbox, "u", space)
        .target(atomic("TvProgram")).preferences(rules).build()
    )


def install_by_parsing(engine, specs, tick):
    """The general path: validate, clear, then one ``assert_concept`` a spec."""
    parsed = [parse_context_spec(spec) for spec in specs]
    engine.abox.clear_dynamic()
    for name, probability in parsed:
        if probability >= 1.0:
            engine.abox.assert_concept(name, engine.user, dynamic=True)
        else:
            engine.abox.assert_concept(
                name, engine.user, _context_atom(tick, name, probability), dynamic=True
            )


def bits(value: float) -> bytes:
    return struct.pack("<d", value)


def assert_same(by_value, by_parsing):
    assert by_value.abox.dynamic_assertions() == by_parsing.abox.dynamic_assertions()
    assert by_value.abox.context_signature() == by_parsing.abox.context_signature()
    assert by_value.view_fingerprint() == by_parsing.view_fingerprint()
    ranked = [
        [
            (item.document, bits(item.score), bits(item.preference))
            for item in engine.rank(RankRequest()).items
        ]
        for engine in (by_value, by_parsing)
    ]
    assert ranked[0] == ranked[1]


specs = st.lists(
    st.tuples(st.sampled_from(NAMES), st.sampled_from(PROBABILITIES)).map("".join),
    max_size=4,
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("install"), specs, st.sampled_from(TICKS)),
        st.tuples(st.just("flip"), st.integers(0, 7), st.booleans()),
        # an earlier context's concepts under new probabilities (a sensor
        # re-reading the same situation)
        st.tuples(st.just("reweigh"), st.integers(0, 7), st.sampled_from(PROBABILITIES)),
        st.tuples(st.just("static"), st.sampled_from(NAMES)),
    ),
    min_size=2,
    max_size=12,
)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("layered", [False, True], ids=["flat", "overlay"])
@settings(max_examples=25, deadline=None)
@given(steps=steps, base_dynamic=st.booleans())
def test_a_value_install_is_the_parse_and_assert_install(backend, layered, steps, base_dynamic):
    clear_registry()
    world = build_world(base_dynamic and layered)
    with kernel_backend(backend):
        by_value, by_parsing = make_engine(world, layered), make_engine(world, layered)
        installed = []  # (specs, tick) in order, for flip-backs
        kept = []  # the values, held as a query memo would
        for step in steps:
            if step[0] == "static":
                for engine in (by_value, by_parsing):
                    engine.abox.assert_concept(step[1], "u")
            else:
                if step[0] == "install":
                    _kind, context, tick = step
                    installed.append((context, tick))
                elif not installed:
                    continue
                elif step[0] == "flip":
                    _kind, index, reverse = step
                    context, tick = installed[index % len(installed)]
                    if reverse:
                        context = context[::-1]
                else:
                    _kind, index, probability = step
                    context, tick = installed[index % len(installed)]
                    context = [spec.partition(":")[0] + probability for spec in context]
                value = context_value(context, tick)
                kept.append(value)
                if len(kept) % 2:
                    by_value.install_context(value)
                else:
                    by_value.install_context(*context, tick=tick)
                install_by_parsing(by_parsing, context, tick)
            assert_same(by_value, by_parsing)
    clear_registry()


def test_a_flip_back_splices_the_kept_rows_and_a_merge_falls_back():
    """The counters the differential relies on move as documented: a
    repeated context is spliced from the session's kept rows, a row that
    meets a static fact takes the general path."""
    clear_registry()
    world = build_world(False)
    engine = make_engine(world, layered=True)
    first, second = ("C0", "C1:0.3"), ("C2:0.7",)
    for _ in range(3):
        engine.install_context(*first, tick="svc")
        engine.install_context(*second, tick="svc")
    held = engine.context._held
    assert {value.pairs for value in held} == {(("C0", 1.0), ("C1", 0.3)), (("C2", 0.7),)}
    before = context_counters()
    engine.install_context(*first, tick="svc")
    after = context_counters()
    assert after["splices"] - before["splices"] == 2
    assert after["fallbacks"] == before["fallbacks"]
    assert after["values_built"] == before["values_built"]
    engine.install_context(*second, tick="svc")
    after = context_counters()
    engine.abox.assert_concept("C1", "u")  # a static fact the next install merges into
    engine.install_context(*first, tick="svc")
    merged = context_counters()
    assert merged["splices"] - after["splices"] == 1
    assert merged["fallbacks"] - after["fallbacks"] == 1
    assert context_value(first, "svc") is context_value(first[::-1], "svc")
    assert context_value(first, "svc") is not context_value(first, "ctx")
    lower = context_value(("C1:0.3",), "svc")
    assert context_value(("C1:0.7",), "svc") is not lower
    assert context_value(("C1:0.30",), "svc") is lower
    clear_registry()
