"""Property-based tests for the VOTable operations."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.votable.model import Field, VOTable
from repro.votable.ops import inner_join

keys = st.text(alphabet="abcdefg", min_size=1, max_size=2)


@st.composite
def keyed_tables(draw):
    """Two tables sharing a 'k' key column, arbitrary key multiplicity."""
    left = VOTable([Field("k", "char"), Field("a", "int")])
    right = VOTable([Field("k", "char"), Field("b", "int")])
    for i, key in enumerate(draw(st.lists(keys, max_size=10))):
        left.append([key, i])
    for i, key in enumerate(draw(st.lists(keys, max_size=10))):
        right.append([key, i * 10])
    return left, right


class TestJoinProperties:
    @given(keyed_tables())
    def test_inner_join_cardinality(self, tables):
        """|A join B| equals the sum over keys of count_A(k) * count_B(k)."""
        left, right = tables
        left_counts: dict[str, int] = {}
        right_counts: dict[str, int] = {}
        for row in left:
            left_counts[row["k"]] = left_counts.get(row["k"], 0) + 1
        for row in right:
            right_counts[row["k"]] = right_counts.get(row["k"], 0) + 1
        expected = sum(n * right_counts.get(k, 0) for k, n in left_counts.items())
        assert len(inner_join(left, right, on="k")) == expected

    @given(keyed_tables())
    def test_join_commutes_on_key_sets(self, tables):
        """The key multiset of A join B equals that of B join A."""
        left, right = tables
        ab = sorted(row["k"] for row in inner_join(left, right, on="k"))
        ba = sorted(row["k"] for row in inner_join(right, left, on="k"))
        assert ab == ba
