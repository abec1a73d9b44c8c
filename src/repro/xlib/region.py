"""Band-based rectangle regions (the X server's Region design).

A :class:`Region` stores a set of pixels as horizontal *bands*: maximal
y-ranges over which the covered x-extents are constant.  Each band keeps
its x-extents as a sorted tuple of disjoint half-open intervals
``(x0, x1, x0', x1', ...)``, bands are sorted by ``y0`` and never overlap
in y, and two vertically adjacent bands always differ in their x-extents
(otherwise they are coalesced into one).  That canonical form is what
makes the X server's miRegionOp fast and is exactly what we need for
damage tracking: unioning many small dirty rects degrades gracefully,
and iteration yields a minimal list of disjoint rectangles.

Its executable specification, a flat rect list maintained by rectangle
splitting, lives with the tests (``tests/oracles/region.py``) and is
differentially tested against this implementation on randomized rect
sequences (tests/test_region.py).  All coordinates are half-open boxes ``(x0, y0, x1, y1)``.
"""


# ----------------------------------------------------------------------
# Interval (x-extent) algebra on sorted disjoint half-open intervals,
# encoded as flat tuples (x0, x1, x0', x1', ...).

def _ix_union(a, b):
    if not a:
        return b
    if not b:
        return a
    spans = sorted(
        [(a[i], a[i + 1]) for i in range(0, len(a), 2)]
        + [(b[i], b[i + 1]) for i in range(0, len(b), 2)]
    )
    out = []
    cx0, cx1 = spans[0]
    for x0, x1 in spans[1:]:
        if x0 <= cx1:
            if x1 > cx1:
                cx1 = x1
        else:
            out.append(cx0)
            out.append(cx1)
            cx0, cx1 = x0, x1
    out.append(cx0)
    out.append(cx1)
    return tuple(out)


def _ix_intersect(a, b):
    out = []
    i = j = 0
    while i < len(a) and j < len(b):
        x0 = a[i] if a[i] > b[j] else b[j]
        x1 = a[i + 1] if a[i + 1] < b[j + 1] else b[j + 1]
        if x0 < x1:
            out.append(x0)
            out.append(x1)
        if a[i + 1] <= b[j + 1]:
            i += 2
        else:
            j += 2
    return tuple(out)


def _ix_subtract(a, b):
    if not b:
        return a
    out = []
    for i in range(0, len(a), 2):
        x0, x1 = a[i], a[i + 1]
        for j in range(0, len(b), 2):
            bx0, bx1 = b[j], b[j + 1]
            if bx1 <= x0:
                continue
            if bx0 >= x1:
                break
            if bx0 > x0:
                out.append(x0)
                out.append(bx0)
            if bx1 > x0:
                x0 = bx1
            if x0 >= x1:
                break
        if x0 < x1:
            out.append(x0)
            out.append(x1)
    return tuple(out)


def _append_band(bands, y0, y1, xs):
    """Append a band, coalescing with the previous one when x-extents
    match and the bands touch -- this is what keeps the form canonical."""
    if bands and bands[-1][1] == y0 and bands[-1][2] == xs:
        bands[-1] = (bands[-1][0], y1, xs)
    else:
        bands.append((y0, y1, xs))


def _combine(a_bands, b_bands, op):
    """Sweep both band lists over the merged y-breakpoints, combining
    the active x-extents of each elementary slab with ``op``."""
    ys = set()
    for y0, y1, _xs in a_bands:
        ys.add(y0)
        ys.add(y1)
    for y0, y1, _xs in b_bands:
        ys.add(y0)
        ys.add(y1)
    ys = sorted(ys)
    out = []
    ia = ib = 0
    na, nb = len(a_bands), len(b_bands)
    for k in range(len(ys) - 1):
        y0 = ys[k]
        y1 = ys[k + 1]
        while ia < na and a_bands[ia][1] <= y0:
            ia += 1
        xa = a_bands[ia][2] if ia < na and a_bands[ia][0] <= y0 else ()
        while ib < nb and b_bands[ib][1] <= y0:
            ib += 1
        xb = b_bands[ib][2] if ib < nb and b_bands[ib][0] <= y0 else ()
        xs = op(xa, xb)
        if xs:
            _append_band(out, y0, y1, xs)
    return out


class Region:
    """A set of pixels stored as coalesced y-bands of x-intervals."""

    __slots__ = ("_bands",)

    def __init__(self, rect=None):
        self._bands = []
        if rect is not None:
            self.add_rect(*rect)

    # -- constructors / mutation ---------------------------------------

    def add_rect(self, x0, y0, x1, y1):
        if x0 >= x1 or y0 >= y1:
            return
        if not self._bands:
            self._bands.append((y0, y1, (x0, x1)))
            return
        self._bands = _combine(self._bands, [(y0, y1, (x0, x1))], _ix_union)

    def union(self, other):
        self._bands = _combine(self._bands, other._as_bands(), _ix_union)

    def intersect(self, other):
        self._bands = _combine(self._bands, other._as_bands(), _ix_intersect)

    def subtract(self, other):
        self._bands = _combine(self._bands, other._as_bands(), _ix_subtract)

    def intersect_rect(self, x0, y0, x1, y1):
        if x0 >= x1 or y0 >= y1:
            self._bands = []
            return
        self._bands = _combine(self._bands, [(y0, y1, (x0, x1))],
                               _ix_intersect)

    def subtract_rect(self, x0, y0, x1, y1):
        if x0 >= x1 or y0 >= y1:
            return
        self._bands = _combine(self._bands, [(y0, y1, (x0, x1))],
                               _ix_subtract)

    def translate(self, dx, dy):
        self._bands = [
            (y0 + dy, y1 + dy, tuple(x + dx for x in xs))
            for y0, y1, xs in self._bands
        ]

    def copy(self):
        clone = Region()
        clone._bands = list(self._bands)
        return clone

    # -- queries -------------------------------------------------------

    def _as_bands(self):
        return self._bands

    def is_empty(self):
        return not self._bands

    def __bool__(self):
        return bool(self._bands)

    def rects(self):
        """The minimal disjoint rectangle list, in band order."""
        out = []
        for y0, y1, xs in self._bands:
            for i in range(0, len(xs), 2):
                out.append((xs[i], y0, xs[i + 1], y1))
        return out

    def bounds(self):
        """Bounding box (x0, y0, x1, y1), or None when empty."""
        if not self._bands:
            return None
        x0 = min(band[2][0] for band in self._bands)
        x1 = max(band[2][-1] for band in self._bands)
        return (x0, self._bands[0][0], x1, self._bands[-1][1])

    def area(self):
        total = 0
        for y0, y1, xs in self._bands:
            width = 0
            for i in range(0, len(xs), 2):
                width += xs[i + 1] - xs[i]
            total += (y1 - y0) * width
        return total

    def contains_point(self, x, y):
        for y0, y1, xs in self._bands:
            if y0 <= y < y1:
                for i in range(0, len(xs), 2):
                    if xs[i] <= x < xs[i + 1]:
                        return True
                return False
        return False

    def __iter__(self):
        return iter(self.rects())

    def __eq__(self, other):
        if isinstance(other, Region):
            return self._bands == other._bands
        return NotImplemented

    def __hash__(self):  # regions are mutable
        raise TypeError("regions are unhashable")

    def __repr__(self):  # pragma: no cover
        return "Region(%r)" % (self.rects(),)
