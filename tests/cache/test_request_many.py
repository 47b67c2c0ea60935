"""The ``CachePolicy.request_many`` contract, against the per-request path.

``request_many(keys, priorities)`` returns one hit flag per request (1 =
hit, in request order) and leaves ``stats`` and the residency exactly
where one ``request`` per key, in order, would.  The grid pass keeps only
the stats and the fork-join replay keeps the flags, so both halves are
pinned here for every registry policy, FBF's two ablation knobs and
``SimSanitizer``-wrapped policies: at capacity 0, 1, small and larger
than the key space, with no hints or hints 1-5, over int and tuple keys.
A second batch on the same two instances checks that the batched path
leaves the state the per-request path continues from.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache import available_policies, make_policy
from repro.checks import SimSanitizer

N_KEYS = 12  # the key space; the largest capacity exceeds it

POLICY_NAMES = sorted(available_policies())

FACTORIES = {name: (lambda cap, name=name: make_policy(name, cap)) for name in POLICY_NAMES}
FACTORIES["fbf-sticky"] = lambda cap: make_policy("fbf", cap, demote_on_hit=False)
FACTORIES["fbf-5q"] = lambda cap: make_policy("fbf", cap, n_queues=5)
FACTORIES.update(
    {
        f"sanitized-{name}": (lambda cap, name=name: SimSanitizer(make_policy(name, cap)))
        for name in POLICY_NAMES
    }
)

batches = st.lists(
    st.tuples(st.integers(0, N_KEYS - 1), st.integers(1, 5)), min_size=0, max_size=80
)
capacities = st.one_of(st.just(0), st.just(1), st.integers(2, 6), st.just(N_KEYS + 4))


def _key(index: int, tuple_keys: bool):
    return (index // 4, index % 4, 1) if tuple_keys else index


def _check_batch(batched, twin, batch, tuple_keys, with_hints):
    keys = [_key(k, tuple_keys) for k, _ in batch]
    hints = [h for _, h in batch] if with_hints else None
    flags = batched.request_many(keys, hints)
    if with_hints:
        expected = [twin.request(key, priority) for key, priority in zip(keys, hints)]
    else:
        expected = [twin.request(key) for key in keys]
    assert isinstance(flags, bytearray)
    assert flags == bytearray(expected)
    a, b = batched.stats, twin.stats
    assert (a.hits, a.misses, a.evictions) == (b.hits, b.misses, b.evictions)
    assert len(batched) == len(twin)
    universe = [_key(k, tuple_keys) for k in range(N_KEYS)]
    assert [key in batched for key in universe] == [key in twin for key in universe]


@pytest.mark.parametrize("variant", sorted(FACTORIES))
@given(
    first=batches,
    second=batches,
    capacity=capacities,
    tuple_keys=st.booleans(),
    with_hints=st.booleans(),
)
@settings(max_examples=30, deadline=None)
def test_batch_flags_and_state_match_the_per_request_path(
    variant, first, second, capacity, tuple_keys, with_hints
):
    factory = FACTORIES[variant]
    batched, twin = factory(capacity), factory(capacity)
    _check_batch(batched, twin, first, tuple_keys, with_hints)
    _check_batch(batched, twin, second, tuple_keys, with_hints)
