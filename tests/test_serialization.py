"""Tests for canonical encoding and size accounting.

Among them the identity memos a dense round leans on: an exact tuple is
sized once per object, and the memos stay bounded.  Needs
``hypothesis``."""

import collections
import gc
import weakref
from dataclasses import dataclass

import pytest
from hypothesis import given, strategies as st

from repro import serialization
from repro.serialization import (
    canonical_bytes,
    clear_size_cache,
    encoded_size_bits,
    type_tagged,
)


@dataclass(frozen=True)
class Point:
    x: int
    y: int


@dataclass(frozen=True)
class Wrapper:
    label: str
    point: Point


class TestEncodedSize:
    def test_small_int_is_one_word(self):
        assert encoded_size_bits(7) == 64
        assert encoded_size_bits(-7) == 64

    def test_big_int_sized_by_bytes(self):
        value = 1 << 256
        assert encoded_size_bits(value) == 8 * ((value.bit_length() + 7) // 8)

    def test_bytes_have_length_prefix(self):
        assert encoded_size_bits(b"abcd") == 32 + 32

    def test_string_counts_utf8(self):
        assert encoded_size_bits("abc") == 32 + 24

    def test_none_and_bool_are_one_byte(self):
        assert encoded_size_bits(None) == 8
        assert encoded_size_bits(True) == 8

    def test_dataclass_sums_fields_plus_tag(self):
        assert encoded_size_bits(Point(1, 2)) == 32 + 64 + 64

    def test_nested_dataclass(self):
        size = encoded_size_bits(Wrapper("ab", Point(1, 2)))
        assert size == 32 + (32 + 16) + (32 + 64 + 64)

    def test_tuple_and_list_agree(self):
        assert encoded_size_bits((1, 2)) == encoded_size_bits([1, 2])

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            encoded_size_bits(object())

    @given(st.lists(st.integers(min_value=-(2**40), max_value=2**40)))
    def test_list_size_is_sum_plus_prefix(self, values):
        expected = 32 + sum(encoded_size_bits(v) for v in values)
        assert encoded_size_bits(values) == expected


class TestCanonicalBytes:
    def test_deterministic(self):
        assert canonical_bytes(Point(3, 4)) == canonical_bytes(Point(3, 4))

    def test_distinguishes_types(self):
        assert canonical_bytes(1) != canonical_bytes("1")
        assert canonical_bytes(True) != canonical_bytes(1)
        assert canonical_bytes(b"x") != canonical_bytes("x")

    def test_distinguishes_field_values(self):
        assert canonical_bytes(Point(1, 2)) != canonical_bytes(Point(2, 1))

    def test_distinguishes_nesting(self):
        assert canonical_bytes((1, (2, 3))) != canonical_bytes((1, 2, 3))

    def test_sets_are_order_independent(self):
        assert canonical_bytes({3, 1, 2}) == canonical_bytes({2, 3, 1})

    def test_dicts_are_order_independent(self):
        assert (canonical_bytes({"a": 1, "b": 2})
                == canonical_bytes({"b": 2, "a": 1}))

    def test_unknown_type_raises(self):
        with pytest.raises(TypeError):
            canonical_bytes(object())

    @given(st.tuples(st.integers(), st.text(max_size=20)),
           st.tuples(st.integers(), st.text(max_size=20)))
    def test_injective_on_simple_tuples(self, left, right):
        if left != right:
            assert canonical_bytes(left) != canonical_bytes(right)

    @given(st.integers())
    def test_int_roundtrip_stability(self, value):
        assert canonical_bytes(value) == canonical_bytes(value)


class TestGenerationalSizeMemo:
    """The identity memos (sizes, tags) are bounded by clearing at the
    cap; what they answer may not depend on what was evicted.  (The
    generational rotation this class was named for is gone: it never
    fired at any measured n.)"""

    def test_rotation_preserves_correct_sizes(self, monkeypatch):
        import repro.serialization as ser

        ser.clear_size_cache()
        probes = [Wrapper(label=str(i), point=Point(i, -i))
                  for i in range(12)]
        sizes = [encoded_size_bits(p) for p in probes]
        tags = [type_tagged(p) for p in probes]
        ser.clear_size_cache()
        monkeypatch.setattr(ser, "_SIZE_CACHE_LIMIT", 2)
        try:
            for table, measure, expected in (
                    (ser._SIZE_BY_ID, encoded_size_bits, sizes),
                    (ser._TAG_BY_ID, type_tagged, tags)):
                for probe, want in zip(probes, expected):
                    assert measure(probe) == want
                    # Hitting the limit clears: 24 entries go in, the
                    # table never holds more than the cap.
                    assert 1 <= len(table) <= 2
                # Re-query in reverse: most entries have been evicted
                # and are recomputed; answers must not change either way.
                assert [measure(p) for p in reversed(probes)] \
                    == expected[::-1]
        finally:
            ser.clear_size_cache()


class _Leaf:
    """A weakref-able item whose own size is never memoized (tuples
    themselves cannot be weakly referenced)."""

    def encoded_size_bits(self):
        return 8


class TestTupleSizeMemo:
    """An exact tuple is sized once per object, like a dataclass.  Seeded
    mutant: memoize regardless of items — kills the list test."""

    @pytest.fixture(autouse=True)
    def _fresh_memo(self):
        clear_size_cache()
        yield
        clear_size_cache()

    def test_memoized_size_survives_a_clear(self):
        quorum = (Point(1, 2), "ab", 7)
        size = encoded_size_bits(quorum)
        assert size == 32 + (32 + 64 + 64) + (32 + 16) + 64
        assert serialization._SIZE_BY_ID[id(quorum)] == (quorum, size)
        clear_size_cache()
        assert id(quorum) not in serialization._SIZE_BY_ID
        assert encoded_size_bits(quorum) == size

    def test_memo_pins_the_tuple_until_cleared(self):
        quorum = (_Leaf(), 1)
        ref = weakref.ref(quorum[0])
        assert encoded_size_bits(quorum) == 32 + 8 + 64
        del quorum
        gc.collect()
        assert ref() is not None
        clear_size_cache()
        gc.collect()
        assert ref() is None

    def test_bool_and_int_items_size_apart(self):
        assert encoded_size_bits((True,)) == 32 + 8
        assert encoded_size_bits((1,)) == 32 + 64
        assert encoded_size_bits((True,)) == 32 + 8

    def test_tuple_holding_a_mutable_item_is_resized(self):
        for grows, grow in (([1], lambda item: item.append(2)),
                            ({1: 2}, lambda item: item.update({3: 4})),
                            ({1}, lambda item: item.add(3)),
                            (bytearray(b"a"), lambda item: item.extend(b"b"))):
            holder = (grows, 5)
            before = encoded_size_bits(holder)
            grow(grows)
            assert encoded_size_bits(holder) > before
            assert id(holder) not in serialization._SIZE_BY_ID

    def test_tuple_subclass_and_list_are_not_memoized(self):
        Pair = collections.namedtuple("Pair", "a b")
        for sequence in (Pair(1, 2), [1, 2]):
            assert encoded_size_bits(sequence) == 32 + 64 + 64
            assert id(sequence) not in serialization._SIZE_BY_ID
