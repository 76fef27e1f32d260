"""A self-balancing (AVL) binary search tree keyed by integer address.

The paper (Section 5.2) states that GMAC "keeps memory blocks in a balanced
binary tree, which requires O(log2(n)) operations to locate a given block",
and that with small block sizes this search time becomes the dominant
page-fault overhead.  The shared-memory manager keeps every block start in
this tree as its fault-cost oracle: it finds blocks by arithmetic, but each
fault walks the tree once and charges ``t_base + t_node * steps``, so
Figure 11's small-block penalty comes from the same data structure the
paper used.
"""


class _Node:
    __slots__ = ("key", "value", "left", "right", "height")

    def __init__(self, key, value):
        self.key = key
        self.value = value
        self.left = None
        self.right = None
        self.height = 1


def _height(node):
    return node.height if node is not None else 0


def _update(node):
    node.height = 1 + max(_height(node.left), _height(node.right))


def _balance_factor(node):
    return _height(node.left) - _height(node.right)


def _rotate_right(node):
    pivot = node.left
    node.left = pivot.right
    pivot.right = node
    _update(node)
    _update(pivot)
    return pivot


def _rotate_left(node):
    pivot = node.right
    node.right = pivot.left
    pivot.left = node
    _update(node)
    _update(pivot)
    return pivot


def _rebalance(node):
    _update(node)
    balance = _balance_factor(node)
    if balance > 1:
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if balance < -1:
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class AvlTree:
    """Map from integer keys to values with a step-counting floor query.

    :meth:`floor_steps` returns the comparisons its search performed, so
    the GMAC fault handler can convert tree work into virtual time.
    """

    def __init__(self):
        self._root = None
        self._size = 0

    def __len__(self):
        return self._size

    @property
    def height(self):
        return _height(self._root)

    def insert(self, key, value):
        """Insert or replace ``key -> value``."""
        self._root, added = self._insert(self._root, key, value)
        if added:
            self._size += 1

    def _insert(self, node, key, value):
        if node is None:
            return _Node(key, value), True
        if key == node.key:
            node.value = value
            return node, False
        if key < node.key:
            node.left, added = self._insert(node.left, key, value)
        else:
            node.right, added = self._insert(node.right, key, value)
        return _rebalance(node), added

    def delete(self, key):
        """Remove ``key``; raise KeyError if absent."""
        self._root, removed = self._delete(self._root, key)
        if not removed:
            raise KeyError(key)
        self._size -= 1

    def _delete(self, node, key):
        if node is None:
            return None, False
        if key < node.key:
            node.left, removed = self._delete(node.left, key)
        elif key > node.key:
            node.right, removed = self._delete(node.right, key)
        else:
            removed = True
            if node.left is None:
                return node.right, True
            if node.right is None:
                return node.left, True
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            node.key = successor.key
            node.value = successor.value
            node.right, _ = self._delete(node.right, successor.key)
        return _rebalance(node), removed

    def floor_steps(self, key):
        """Return ``((k, v) or None, steps)``: the entry with the largest
        k <= key, and the number of nodes the search visited.

        This is the lookup the paper's fault handler performs: blocks are
        keyed by start address, so the block containing a faulting address
        is the floor entry, and ``steps`` prices the Section 5.2 search.
        """
        node = self._root
        best = None
        steps = 0
        while node is not None:
            steps += 1
            if node.key == key:
                return (node.key, node.value), steps
            if node.key < key:
                best = (node.key, node.value)
                node = node.right
            else:
                node = node.left
        return best, steps

    def items(self):
        """Yield (key, value) in ascending key order."""
        stack = []
        node = self._root
        while stack or node is not None:
            while node is not None:
                stack.append(node)
                node = node.left
            node = stack.pop()
            yield (node.key, node.value)
            node = node.right

    def check_invariants(self):
        """Validate BST ordering and AVL balance; used by property tests."""
        def walk(node, low, high):
            if node is None:
                return 0
            if not (low < node.key < high):
                raise AssertionError(f"BST order violated at key {node.key}")
            left = walk(node.left, low, node.key)
            right = walk(node.right, node.key, high)
            if abs(left - right) > 1:
                raise AssertionError(f"AVL balance violated at key {node.key}")
            height = 1 + max(left, right)
            if node.height != height:
                raise AssertionError(f"stale height at key {node.key}")
            return height

        walk(self._root, float("-inf"), float("inf"))
