"""The balanced block-index tree (Section 5.2's O(log n) structure)."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.util.avltree import AvlTree


def _lookup(tree, key):
    """Exact lookup through the floor search: the value stored at ``key``."""
    found, _ = tree.floor_steps(key)
    return found[1] if found is not None and found[0] == key else None


class TestBasics:
    def test_empty(self):
        tree = AvlTree()
        assert len(tree) == 0
        assert tree.height == 0
        assert tree.floor_steps(5) == (None, 0)
        assert list(tree.items()) == []

    def test_insert_and_get(self):
        tree = AvlTree()
        tree.insert(10, "a")
        tree.insert(5, "b")
        tree.insert(20, "c")
        assert _lookup(tree, 10) == "a"
        assert _lookup(tree, 5) == "b"
        assert _lookup(tree, 20) == "c"
        assert _lookup(tree, 7) is None
        assert len(tree) == 3

    def test_insert_replaces(self):
        tree = AvlTree()
        tree.insert(10, "a")
        tree.insert(10, "b")
        assert _lookup(tree, 10) == "b"
        assert len(tree) == 1

    def test_delete(self):
        tree = AvlTree()
        for key in (3, 1, 4, 1, 5, 9, 2, 6):
            tree.insert(key, key)
        tree.delete(4)
        assert _lookup(tree, 4) is None
        assert len(tree) == 6  # 1 was a duplicate insert
        with pytest.raises(KeyError):
            tree.delete(4)

    def test_delete_root_with_two_children(self):
        tree = AvlTree()
        for key in (10, 5, 20, 15, 25):
            tree.insert(key, key)
        tree.delete(10)
        assert [key for key, _ in tree.items()] == [5, 15, 20, 25]
        tree.check_invariants()

    def test_items_sorted(self):
        tree = AvlTree()
        for key in (9, 2, 7, 1, 8):
            tree.insert(key, str(key))
        assert [k for k, _ in tree.items()] == [1, 2, 7, 8, 9]


class TestFloorCeiling:
    def test_floor_is_block_lookup(self):
        # Blocks at 0x0, 0x1000, 0x2000; the block containing an address is
        # the floor of that address.
        tree = AvlTree()
        for start in (0x0, 0x1000, 0x2000):
            tree.insert(start, f"block@{start:#x}")
        assert tree.floor_steps(0x0)[0] == (0x0, "block@0x0")
        assert tree.floor_steps(0xFFF)[0] == (0x0, "block@0x0")
        assert tree.floor_steps(0x1000)[0] == (0x1000, "block@0x1000")
        assert tree.floor_steps(0x2FFF)[0] == (0x2000, "block@0x2000")

    def test_floor_below_min(self):
        tree = AvlTree()
        tree.insert(100, "x")
        assert tree.floor_steps(99) == (None, 1)


class TestBalance:
    def test_height_is_logarithmic_for_sorted_inserts(self):
        tree = AvlTree()
        n = 1024
        for key in range(n):
            tree.insert(key, key)
        # A plain BST would have height 1024; AVL stays near log2.
        assert tree.height <= int(1.44 * math.log2(n + 2)) + 1
        tree.check_invariants()

    def test_floor_steps_grow_logarithmically(self):
        tree = AvlTree()
        for key in range(4096):
            tree.insert(key, key)
        found, steps = tree.floor_steps(4095)
        assert found == (4095, 4095)
        assert 1 <= steps <= tree.height <= 2 * math.ceil(math.log2(4096)) + 2

    @given(st.lists(st.integers(-1000, 1000), max_size=200))
    @settings(max_examples=50)
    def test_invariants_after_random_inserts(self, keys):
        tree = AvlTree()
        for key in keys:
            tree.insert(key, key)
        tree.check_invariants()
        assert sorted(set(keys)) == [key for key, _ in tree.items()]

    @given(
        st.lists(st.integers(0, 100), min_size=1, max_size=100),
        st.lists(st.integers(0, 100), max_size=100),
    )
    @settings(max_examples=50)
    def test_matches_dict_model(self, inserts, deletes):
        tree = AvlTree()
        model = {}
        for key in inserts:
            tree.insert(key, key * 2)
            model[key] = key * 2
        for key in deletes:
            if key in model:
                tree.delete(key)
                del model[key]
            else:
                with pytest.raises(KeyError):
                    tree.delete(key)
        tree.check_invariants()
        assert dict(tree.items()) == model
        if model:
            for probe in range(-1, 102):
                expected = max((k for k in model if k <= probe), default=None)
                found = tree.floor_steps(probe)[0]
                assert (found[0] if found else None) == expected
