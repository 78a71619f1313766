"""Hypothesis property tests for the threshold core."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.boolean.cover import Cover
from repro.boolean.function import BooleanFunction
from repro.core.identify import ThresholdChecker
from repro.core.splitting import split_binate, split_k_way
from repro.core.synthesis import SynthesisOptions, synthesize
from repro.core.theorems import theorem2_extend
from repro.core.threshold import WeightThresholdVector
from repro.core.verify import verify_threshold_network
from repro.network.network import BooleanNetwork


@st.composite
def covers(draw, max_vars: int = 4, max_cubes: int = 5):
    nvars = draw(st.integers(min_value=1, max_value=max_vars))
    rows = draw(
        st.lists(
            st.text(alphabet="01-", min_size=nvars, max_size=nvars),
            min_size=1,
            max_size=max_cubes,
        )
    )
    return Cover.from_strings(rows)


@settings(max_examples=150, deadline=None)
@given(covers())
def test_identified_vectors_implement_their_function(cover):
    vec = ThresholdChecker().check(cover)
    if vec is None:
        return
    for p in range(1 << cover.nvars):
        total = sum(vec.weights[i] for i in range(cover.nvars) if (p >> i) & 1)
        assert (total >= vec.threshold) == cover.evaluate(p)


@settings(max_examples=150, deadline=None)
@given(covers())
def test_identification_invariant_under_scc(cover):
    checker = ThresholdChecker()
    assert (checker.check(cover) is None) == (checker.check(cover.scc()) is None)


@settings(max_examples=100, deadline=None)
@given(covers(), st.integers(min_value=0, max_value=2))
def test_delta_on_never_helps_feasibility(cover, delta_on):
    """Raising delta_on can only shrink the feasible set."""
    loose = ThresholdChecker(delta_on=0).check(cover)
    tight = ThresholdChecker(delta_on=delta_on).check(cover)
    if tight is not None:
        assert loose is not None


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
    st.integers(min_value=-2, max_value=4),
    st.integers(min_value=1, max_value=2),
)
def test_theorem2_extension_is_or(weights, threshold, extra):
    """For any gate, the Theorem-2 extension computes f OR new inputs."""
    base = WeightThresholdVector(tuple(weights), threshold)
    extended = theorem2_extend(base, extra)
    n = len(weights)
    for p in range(1 << (n + extra)):
        original = [(p >> i) & 1 for i in range(n)]
        news = [(p >> (n + j)) & 1 for j in range(extra)]
        want = base.evaluate(original) or any(news)
        got = extended.evaluate(original + news)
        assert got == want, (base, extended, p)


@st.composite
def small_networks(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    net = BooleanNetwork(f"h{seed}")
    signals = [net.add_input(f"x{i}") for i in range(4)]
    for j in range(draw(st.integers(min_value=1, max_value=6))):
        k = rng.randint(1, min(3, len(signals)))
        fanins = rng.sample(signals, k)
        rows = [
            "".join(rng.choice("01-") for _ in range(k))
            for _ in range(rng.randint(1, 3))
        ]
        signals.append(
            net.add_node(f"n{j}", BooleanFunction.from_sop(rows, fanins))
        )
    net.add_output(signals[-1])
    if net.is_input(signals[-1]):
        return None
    net.check()
    return net


@settings(max_examples=60, deadline=None)
@given(small_networks(), st.integers(min_value=2, max_value=4))
def test_synthesis_is_always_functionally_correct(net, psi):
    """The master invariant: synthesize() output == source network."""
    if net is None:
        return
    th = synthesize(net, SynthesisOptions(psi=psi))
    assert th.max_fanin() <= psi
    assert verify_threshold_network(net, th)


@settings(max_examples=100, deadline=None)
@given(covers(max_vars=4, max_cubes=6), st.integers(min_value=2, max_value=4))
def test_splits_preserve_function(cover, k):
    cover = cover.scc()
    if cover.num_cubes < 2:
        return
    f = BooleanFunction(cover, tuple(f"v{i}" for i in range(cover.nvars)))
    for parts in (
        split_k_way(f, k),
        split_binate(f, psi=k, rng=random.Random(0)),
    ):
        union = list(f.variables)
        rebased = [p.rebased(union) for p in parts]
        for point in range(1 << len(union)):
            want = f.cover.evaluate(point)
            got = any(r.cover.evaluate(point) for r in rebased)
            assert got == want
