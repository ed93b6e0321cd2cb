"""The view signature's contract over layered knowledge.

An overlay's context signature carries its base's sensed context as one
digest (cached on the base per mutation epoch), its own dynamic rows
and the keys it shadows below.  Whatever the shape, the contract the
view cache and the response cache stand on holds: equal knowledge state
reached the same way signs (and digests) equal — so two tenants with
equal content share a digest and a flip back revalidates — and a
change to the merged content, in either layer, changes the signature.
"""

import pytest

from repro.cache import signature_digest
from repro.dl import ABox
from repro.engine.backends import AboxContext
from repro.events.atoms import BasicEvent
from repro.events.expr import ALWAYS, atom
from repro.reason import clear_registry
from repro.tenants import TenantRegistry
from repro.workloads import Section5Counts, generate_rule_series, generate_test_database


@pytest.fixture(autouse=True)
def fresh_registry():
    clear_registry()
    yield
    clear_registry()


def section5_registry():
    world = generate_test_database(seed=7, counts=Section5Counts(persons=10, programs=40))
    assert world.abox.dynamic_assertions()  # the base has sensed context
    return TenantRegistry(world, rules=generate_rule_series(world, 6)), world


def view_digest(session):
    return signature_digest(session.engine._signature())


def test_two_tenants_with_equal_content_share_signature_and_digest():
    registry, world = section5_registry()
    user = str(world.user)
    alice = registry.session("alice", user=user)
    bob = registry.session("bob", user=user)
    alice.install_context("CtxScenario_01:0.4242", "CtxScenario_02")
    bob.install_context("CtxScenario_02:1.0", "CtxScenario_01:0.42420")
    assert alice.engine._signature() == bob.engine._signature()
    assert view_digest(alice) == view_digest(bob)
    bob.install_context("CtxScenario_01:0.4243", "CtxScenario_02")
    assert view_digest(alice) != view_digest(bob)


def test_a_flip_back_restores_the_earlier_digest():
    registry, _world = section5_registry()
    session = registry.session("alice")
    session.install_context("CtxScenario_01:0.25")
    first = view_digest(session)
    session.install_context("CtxScenario_03:0.75")
    assert view_digest(session) != first
    session.install_context("CtxScenario_01:0.25")
    assert view_digest(session) == first


def test_a_base_dynamic_mutation_changes_every_overlay_signature():
    base = ABox()
    base.assert_concept("Program", "news")
    base.assert_concept("Busy", "peter", atom(BasicEvent("busy", 0.5)), dynamic=True)
    overlays = [base.overlay() for _ in range(2)]
    overlays[0].assert_concept("Weekend", "peter", dynamic=True)
    contexts = [AboxContext(overlay) for overlay in overlays]
    before = [context.signature() for context in contexts]
    digest = base.context_digest()
    base.assert_concept("Tired", "paul", dynamic=True)
    assert base.context_digest() != digest
    after = [context.signature() for context in contexts]
    assert all(old != new for old, new in zip(before, after))
    # ... and so does one two layers down, through a middle overlay
    team = base.overlay()
    user = team.overlay()
    context = AboxContext(user)
    before = context.signature()
    team.assert_concept("Meeting", "peter", dynamic=True)
    assert context.signature() != before


def test_an_overlay_that_shadows_a_base_dynamic_row_signs_differently():
    base = ABox()
    base.assert_concept("Busy", "peter", atom(BasicEvent("busy", 0.5)), dynamic=True)
    base.freeze()
    shadowing, beside = base.overlay(), base.overlay()
    shadowing.assert_concept("Busy", "peter", ALWAYS, dynamic=True)
    beside.assert_concept("Busy", "paul", ALWAYS, dynamic=True)
    assert AboxContext(shadowing).signature() != AboxContext(beside).signature()
    assert shadowing.context_signature()[-1] == (("Busy", "peter"),)
    assert beside.context_signature()[-1] == ()
    # the base row is OR-merged into the overlay's own row, which hides it
    assert shadowing.context_signature()[1] == (("Busy", "peter", str(ALWAYS)),)


def test_the_base_digest_is_computed_once_per_epoch(monkeypatch):
    base = ABox()
    base.assert_concept("Busy", "peter", atom(BasicEvent("busy", 0.5)), dynamic=True)
    base.freeze()
    rendered = []
    real = ABox.dynamic_signature

    def counting(box):
        rendered.append(box)
        return real(box)

    monkeypatch.setattr(ABox, "dynamic_signature", counting)
    for name in ("alice", "bob", "carol"):
        overlay = base.overlay()
        overlay.assert_concept("Weekend", name, dynamic=True)
        AboxContext(overlay).signature()
    assert rendered.count(base) == 1
