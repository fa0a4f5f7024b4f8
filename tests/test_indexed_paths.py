"""Differential tests for megaflow's per-flow structures.

* The indexed :class:`~repro.tc.classifier.Classifier` against a linear
  first-match scan over the same rules, which this file keeps as the
  oracle: same leaf id for every packet, same ``lookups``/``misses``
  counters, also when rules are added after lookups.
* :meth:`QuantileSketch.add_many` against a loop of
  :meth:`QuantileSketch.add`: bit-identical state, including underflow
  values and ``max_bins`` collapses.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import FiveTuple, PacketFactory
from repro.stats import QuantileSketch
from repro.tc import Classifier, FilterSpec, MatchSpec

# Small field domains, so random rules and packets collide often.
IPS = ("10.0.0.1", "10.0.0.2")
PORTS = (1, 2, 3, 4)
PROTOS = (6, 17)
VFS = (0, 1, 2)
APPS = ("", "A", "B")


def _port_match():
    single = st.sampled_from(PORTS).map(str)
    ranged = st.tuples(st.sampled_from(PORTS), st.sampled_from(PORTS)).map(
        lambda lh: f"{min(lh)}-{max(lh)}"
    )
    return st.one_of(single, ranged)


@st.composite
def filter_specs(draw):
    """One filter: every field independently wildcard or exact/range."""
    fields = {}
    for name, values in (
        ("src", st.sampled_from(IPS)),
        ("dst", st.sampled_from(IPS)),
        ("sport", _port_match()),
        ("dport", _port_match()),
        ("proto", st.sampled_from(("tcp", "udp", "6", "17"))),
        ("vf", st.sampled_from(VFS).map(str)),
        ("app", st.sampled_from(APPS[1:])),
    ):
        if draw(st.booleans()):
            fields[name] = draw(values)
    return FilterSpec(
        flowid=draw(st.sampled_from(("1:10", "1:20", "1:30"))),
        match=fields,
        prio=draw(st.sampled_from((1, 2, 3))),
    )


packets_spec = st.tuples(
    st.sampled_from(IPS), st.sampled_from(IPS), st.sampled_from(PORTS),
    st.sampled_from(PORTS), st.sampled_from(PROTOS), st.sampled_from(VFS),
    st.sampled_from(APPS),
)


class LinearOracle:
    """The linear first-match walk: rules sorted by (prio, insertion
    order), each checked with :meth:`MatchSpec.matches`."""

    def __init__(self):
        self.rules = []
        self.lookups = 0
        self.misses = 0

    def add(self, spec):
        self.rules.append((spec.prio, len(self.rules), MatchSpec.compile(spec.match), spec.flowid))
        self.rules.sort(key=lambda r: r[:2])

    def classify(self, packet):
        self.lookups += 1
        for _, _, match, flowid in self.rules:
            if match.matches(packet):
                return flowid
        self.misses += 1
        return None


class TestIndexedClassifier:
    @settings(max_examples=300, deadline=None)
    @given(
        ops=st.lists(
            st.one_of(
                st.tuples(st.just("add"), filter_specs()),
                st.tuples(st.just("lookup"), packets_spec),
            ),
            max_size=40,
        )
    )
    def test_matches_linear_first_match_scan(self, ops):
        factory = PacketFactory()
        indexed, oracle = Classifier(), LinearOracle()
        for op, arg in ops:
            if op == "add":
                indexed.add(arg)
                oracle.add(arg)
                continue
            src, dst, sport, dport, proto, vf, app = arg
            packet = factory.make(
                100, FiveTuple(src, dst, sport, dport, proto), 0.0, app=app, vf_index=vf
            )
            want = oracle.classify(packet)
            assert indexed.resolve(packet) == want  # the uncounted walk
            assert indexed.classify(packet) == want
            assert (indexed.lookups, indexed.misses) == (oracle.lookups, oracle.misses)
        assert len(indexed) == len(oracle.rules)

    def test_app_only_policy_resolves_with_one_candidate(self):
        classifier = Classifier([
            FilterSpec(flowid="1:10", match={"app": "NC"}),
            FilterSpec(flowid="1:20", match={"app": "WS"}),
            FilterSpec(flowid="1:99", match={}),
        ])
        packet = PacketFactory().make(100, FiveTuple("a", "b", 1, 2), 0.0, app="WS")
        assert classifier.classify(packet) == "1:20"
        assert classifier._index[(0, "WS", 6)] == ((None, None, None, None, "1:20"),)


finite = st.floats(min_value=1e-9, max_value=1e6, allow_nan=False, allow_infinity=False)
tiny = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=1e-12))
values = st.lists(st.one_of(finite, tiny, st.floats(min_value=-1.0, max_value=0.0)), max_size=200)


def _state(sketch):
    return (
        dict(sketch._bins), sketch._underflow, sketch.count, sketch.sum,
        sketch._min, sketch._max, sketch._mean, sketch._m2, sketch.collapsed,
    )


class TestAddMany:
    @settings(max_examples=300, deadline=None)
    @given(values=values, max_bins=st.integers(min_value=2, max_value=12),
           cuts=st.lists(st.integers(min_value=0, max_value=200), max_size=4))
    def test_bit_identical_to_add_loop(self, values, max_bins, cuts):
        one_by_one = QuantileSketch(max_bins=max_bins)
        for value in values:
            one_by_one.add(value)
        batched = QuantileSketch(max_bins=max_bins)
        start = 0
        for cut in sorted(cuts) + [len(values)]:
            batched.add_many(values[start:cut])
            start = cut
        assert _state(batched) == _state(one_by_one)
        assert batched.summary() == one_by_one.summary()

    def test_collapse_and_underflow_exercised(self):
        values = [0.0, 1e-13] + [10.0 ** k for k in range(-8, 4)]
        one_by_one = QuantileSketch(max_bins=4)
        for value in values:
            one_by_one.add(value)
        batched = QuantileSketch(max_bins=4)
        batched.add_many(values)
        assert batched.collapsed == one_by_one.collapsed > 0
        assert batched._underflow == 2
        assert _state(batched) == _state(one_by_one)
