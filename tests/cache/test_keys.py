"""Key derivation and the response-key ledger."""

import pytest

from repro.cache.keys import (
    KeyLookup,
    ResponseKeyer,
    family_key,
    query_key,
    response_key,
    signature_digest,
)
from repro.engine.backends import canonical_context
from repro.errors import EngineConfigError


class TestCanonicalContext:
    def test_order_independent(self):
        assert canonical_context(("Weekend", "Breakfast")) == canonical_context(
            ("Breakfast", "Weekend")
        )

    def test_probability_normalised(self):
        # "Weekend" and "Weekend:1.0" install the same knowledge state.
        assert canonical_context(("Weekend",)) == canonical_context(("Weekend:1.0",))

    def test_distinct_probabilities_distinct(self):
        assert canonical_context(("Weekend:0.7",)) != canonical_context(("Weekend:0.8",))

    def test_empty_is_the_explicit_clear(self):
        assert canonical_context(()) == ()

    def test_bad_spec_raises(self):
        with pytest.raises(EngineConfigError):
            canonical_context(("Weekend:nope",))


class TestResponseKey:
    def test_differs_by_every_component(self):
        base = response_key("alice", "d1", None, 3, False)
        assert response_key("bob", "d1", None, 3, False) != base
        assert response_key("alice", "d2", None, 3, False) != base
        assert response_key("alice", "d1", ("p1",), 3, False) != base
        assert response_key("alice", "d1", None, 5, False) != base
        assert response_key("alice", "d1", None, 3, True) != base

    def test_stable(self):
        assert response_key("alice", "d1", ("p1", "p2"), None, True) == response_key(
            "alice", "d1", ("p1", "p2"), None, True
        )

    def test_derived_key_is_the_response_key(self):
        derived = query_key("alice", ("Weekend", "Breakfast:0.7"), ("p1",), 3, True)
        assert derived.key("d1") == response_key("alice", "d1", ("p1",), 3, True)
        assert derived.family == family_key("alice", ("p1",), 3, True)
        reordered = query_key("alice", ("Breakfast:0.7", "Weekend:1.0"), ("p1",), 3, True)
        assert derived == reordered  # canonical context, not its spelling
        assert query_key("alice", None, None, 3, False).canon_digest is None
        # The explicit clear keys apart from "keep the standing context".
        assert query_key("alice", (), None, 3, False).canon_digest is not None


FP_A = (3, ("sig-a",))
FP_B = (7, ("sig-b",))


class TestResponseKeyer:
    def test_unlearned_lookup_has_sentinel_key(self):
        keyer = ResponseKeyer()
        lookup = keyer.lookup(query_key("alice", None, None, 3, False))
        assert isinstance(lookup, KeyLookup)
        assert lookup.view_digest is None
        assert "unlearned" in lookup.key  # a countable, guaranteed miss

    def test_learn_then_standing_hit(self):
        keyer = ResponseKeyer()
        lookup = keyer.lookup(query_key("alice", None, None, 3, False))
        digest = keyer.learn(lookup, FP_A)
        assert digest == signature_digest(("sig-a",))
        again = keyer.lookup(query_key("alice", None, None, 3, False))
        assert again.view_digest == digest
        assert not again.needs_install

    def test_delta_mapping_learned_and_needs_install(self):
        keyer = ResponseKeyer()
        delta = keyer.lookup(query_key("alice", ("Weekend",), None, 3, False))
        keyer.learn(delta, FP_A)
        # Standing now sig-a; flip standing to sig-b via a plain learn.
        keyer.learn(keyer.lookup(query_key("alice", None, None, 3, False)), FP_B)
        again = keyer.lookup(query_key("alice", ("Weekend",), None, 3, False))
        assert again.view_digest == signature_digest(("sig-a",))
        assert again.needs_install  # standing is sig-b, the hit is sig-a

    def test_newest_epoch_wins(self):
        keyer = ResponseKeyer()
        lookup = keyer.lookup(query_key("alice", None, None, 3, False))
        keyer.learn(lookup, FP_B)  # epoch 7 lands first
        keyer.learn(lookup, FP_A)  # epoch 3 arrives late: must not regress
        assert keyer.lookup(query_key("alice", None, None, 3, False)).view_digest == (
            signature_digest(("sig-b",))
        )

    def test_forget_clears_and_fences_in_flight_learns(self):
        keyer = ResponseKeyer()
        stale = keyer.lookup(query_key("alice", None, None, 3, False))
        keyer.learn(stale, FP_A)
        pre_forget = keyer.lookup(query_key("alice", None, None, 3, False))
        keyer.forget("alice")
        assert keyer.lookup(query_key("alice", None, None, 3, False)).view_digest is None
        # A learn whose lookup predates the forget is discarded.
        assert keyer.learn(pre_forget, FP_B) is None
        assert keyer.lookup(query_key("alice", None, None, 3, False)).view_digest is None

    def test_bad_context_never_keys(self):
        with pytest.raises(EngineConfigError):
            query_key("alice", ("Weekend:nope",), None, 3, False)

    def test_ledger_is_bounded(self):
        keyer = ResponseKeyer(max_tenants=4)
        for index in range(10):
            lookup = keyer.lookup(query_key(f"tenant-{index}", None, None, 3, False))
            keyer.learn(lookup, FP_A)
        assert len(keyer) == 4

    def test_clear_forgets_everyone(self):
        keyer = ResponseKeyer()
        keyer.learn(keyer.lookup(query_key("alice", None, None, 3, False)), FP_A)
        keyer.learn(keyer.lookup(query_key("bob", None, None, 3, False)), FP_A)
        keyer.clear()
        assert keyer.lookup(query_key("alice", None, None, 3, False)).view_digest is None
        assert keyer.lookup(query_key("bob", None, None, 3, False)).view_digest is None

    def test_deltas_keep_the_most_recent_instead_of_clearing(self):
        from repro.cache.keys import _MAX_DELTAS

        keyer = ResponseKeyer()
        contexts = [(f"Menu{index}",) for index in range(_MAX_DELTAS + 1)]
        for specs in contexts[:_MAX_DELTAS]:
            keyer.learn(keyer.lookup(query_key("alice", specs, None, 3, False)), FP_A)
        # A flip back freshens the oldest delta; the next new one then
        # displaces the least recently used, not all 64.
        assert keyer.lookup(query_key("alice", contexts[0], None, 3, False)).view_digest
        keyer.learn(keyer.lookup(query_key("alice", contexts[-1], None, 3, False)), FP_A)

        def learned(specs):
            return keyer.lookup(query_key("alice", specs, None, 3, False)).view_digest

        assert learned(contexts[1]) is None
        assert all(learned(specs) is not None for specs in [contexts[0], *contexts[2:]])

    def test_verified_signatures_keep_the_most_recent_instead_of_clearing(self):
        from repro.cache.keys import _MAX_VERIFIED

        keyer = ResponseKeyer()
        flips = [(f"Menu{index}",) for index in range(_MAX_VERIFIED + 1)]
        for epoch, specs in enumerate(flips):
            # Teach the delta, move off it, then verify it as a delta hit would.
            keyer.learn(keyer.lookup(query_key("alice", specs, None, 3, False)), (3 * epoch, specs))
            standing = keyer.lookup(query_key("alice", None, None, 3, False))
            keyer.learn(standing, (3 * epoch + 1, ("standing",)))
            hit = keyer.lookup(query_key("alice", specs, None, 3, False))
            assert hit.needs_install
            keyer.learn(hit, (3 * epoch + 2, specs))
        verified = keyer._tenants.peek("alice").verified
        assert len(verified) == _MAX_VERIFIED
        assert list(verified) == flips[1:]
