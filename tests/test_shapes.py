import pytest

from grothlab.shapes import (
    BoxedPartition,
    complement,
    conjugate,
    contains,
    dual,
    enumerate_partitions_in_box,
    from_01,
    parse_partition,
    parse_skew,
    partition,
    staircase,
    subpartitions,
    to_01,
)


class TestPinnedExample:
    """The (5,3,3) in 4x6 example pins the 01-sequence orientation."""

    def test_sequence(self):
        assert to_01((5, 3, 3), 4, 6) == (1, 0, 0, 0, 1, 1, 0, 0, 1, 0)

    def test_dual(self):
        assert dual((5, 3, 3), 4, 6) == (4, 3, 3, 1, 1, 1)

    def test_complement(self):
        assert complement((5, 3, 3), 4, 6) == (6, 3, 3, 1)

    def test_conjugate(self):
        assert conjugate((5, 3, 3)) == (3, 3, 3, 1, 1)

    def test_box_corners(self):
        # orientation: the empty partition reads as all 1s first
        assert to_01((), 2, 2) == (1, 1, 0, 0)
        assert to_01((2, 2), 2, 2) == (0, 0, 1, 1)
        # complement oracle: empty-dagger is the full box
        assert complement((), 3, 2) == (2, 2, 2)


class TestInvolutions:
    def test_involutions_4x4(self):
        for la in enumerate_partitions_in_box(4, 4):
            assert complement(complement(la, 4, 4), 4, 4) == la
            assert dual(dual(la, 4, 4), 4, 4) == la
            assert conjugate(conjugate(la)) == la
            # conjugate = complement then dual (in the transposed box)
            assert conjugate(la) == dual(complement(la, 4, 4), 4, 4)
            assert conjugate(la) == complement(dual(la, 4, 4), 4, 4)

    def test_roundtrip_5x5(self):
        for la in enumerate_partitions_in_box(5, 5):
            b = from_01(to_01(la, 5, 5))
            assert (b.parts, b.n_rows, b.k_cols) == (la, 5, 5)


class TestBasics:
    def test_parse_format(self):
        assert parse_partition("5,3,3") == (5, 3, 3)
        assert parse_partition("") == ()
        assert parse_skew("5,3,3/2,1") == ((5, 3, 3), (2, 1))
        with pytest.raises(ValueError):
            parse_partition("1,3")

    def test_trailing_zeros(self):
        assert partition((3, 2, 0, 0)) == (3, 2)

    def test_staircases(self):
        assert staircase(3) == (2, 1, 0)

    def test_box_counts(self):
        assert len(enumerate_partitions_in_box(2, 2)) == 6
        assert len(enumerate_partitions_in_box(3, 3)) == 20
        for n, k in [(-1, 2), (2, -1)]:
            with pytest.raises(ValueError):
                enumerate_partitions_in_box(n, k)

    def test_graded_lex_order(self):
        out = enumerate_partitions_in_box(2, 2)
        assert out[0] == ()
        assert [sum(p) for p in out] == sorted(sum(p) for p in out)

    def test_boxed_validation(self):
        with pytest.raises(ValueError):
            BoxedPartition((3,), 2, 2)

    def test_subpartitions(self):
        subs = subpartitions((2, 1))
        assert set(subs) == {(), (1,), (2,), (1, 1), (2, 1)}

    def test_subpartitions_is_the_graded_lex_interval(self):
        # every pair of shapes in the 4x4 box, including the pairs with
        # inner not contained in la, which give []; the box list is in
        # graded-lex order
        box = enumerate_partitions_in_box(4, 4)
        below = {la: [mu for mu in box if contains(la, mu)] for la in box}
        for la in box:
            for inner in box:
                want = [mu for mu in below[la] if contains(mu, inner)]
                assert subpartitions(la, inner) == want, (la, inner)

    def test_subpartitions_inner_with_trailing_zeros(self):
        assert subpartitions((3, 1), (1, 0, 0)) == subpartitions((3, 1), (1,))
        assert subpartitions((0, 0), (0,)) == [()]
        assert subpartitions((2,) * 2, (2, 1, 1)) == []

