"""The rect-list region: the executable specification of
:class:`repro.xlib.region.Region`.

A flat list of disjoint rectangles maintained by rectangle splitting --
quadratic, but obviously right.  tests/test_region.py pins the band
implementation to it on randomized rect sequences, and the render
differential (tests/test_damage_render.py) swaps it in as a display's
region factory (:func:`use_naive_regions`).  Boxes are half-open
``(x0, y0, x1, y1)``.
"""


def _rect_intersect(a, b):
    x0 = max(a[0], b[0])
    y0 = max(a[1], b[1])
    x1 = min(a[2], b[2])
    y1 = min(a[3], b[3])
    if x0 < x1 and y0 < y1:
        return (x0, y0, x1, y1)
    return None


def _rect_subtract(a, b):
    """``a`` minus ``b`` as up to four disjoint rects (top, bottom,
    left, right slabs)."""
    if _rect_intersect(a, b) is None:
        return [a]
    ax0, ay0, ax1, ay1 = a
    bx0, by0, bx1, by1 = b
    out = []
    if by0 > ay0:
        out.append((ax0, ay0, ax1, by0))
    if by1 < ay1:
        out.append((ax0, by1, ax1, ay1))
    mid_y0 = max(ay0, by0)
    mid_y1 = min(ay1, by1)
    if bx0 > ax0:
        out.append((ax0, mid_y0, bx0, mid_y1))
    if bx1 < ax1:
        out.append((bx1, mid_y0, ax1, mid_y1))
    return out


class NaiveRegion:
    """Rect-list region: the same API as
    :class:`repro.xlib.region.Region`."""

    __slots__ = ("_rects",)

    def __init__(self, rect=None):
        self._rects = []
        if rect is not None:
            self.add_rect(*rect)

    def add_rect(self, x0, y0, x1, y1):
        if x0 >= x1 or y0 >= y1:
            return
        pieces = [(x0, y0, x1, y1)]
        for r in self._rects:
            pieces = [p for piece in pieces for p in _rect_subtract(piece, r)]
            if not pieces:
                return
        self._rects.extend(pieces)

    def union(self, other):
        for r in other.rects():
            self.add_rect(*r)

    def intersect(self, other):
        out = []
        for r in self._rects:
            for o in other.rects():
                piece = _rect_intersect(r, o)
                if piece is not None:
                    out.append(piece)
        self._rects = out

    def subtract(self, other):
        for r in other.rects():
            self.subtract_rect(*r)

    def intersect_rect(self, x0, y0, x1, y1):
        if x0 >= x1 or y0 >= y1:
            self._rects = []
            return
        box = (x0, y0, x1, y1)
        out = []
        for r in self._rects:
            piece = _rect_intersect(r, box)
            if piece is not None:
                out.append(piece)
        self._rects = out

    def subtract_rect(self, x0, y0, x1, y1):
        if x0 >= x1 or y0 >= y1:
            return
        box = (x0, y0, x1, y1)
        self._rects = [p for r in self._rects for p in _rect_subtract(r, box)]

    def translate(self, dx, dy):
        self._rects = [(x0 + dx, y0 + dy, x1 + dx, y1 + dy)
                       for x0, y0, x1, y1 in self._rects]

    def copy(self):
        clone = NaiveRegion()
        clone._rects = list(self._rects)
        return clone

    def is_empty(self):
        return not self._rects

    def __bool__(self):
        return bool(self._rects)

    def rects(self):
        return list(self._rects)

    def bounds(self):
        if not self._rects:
            return None
        return (
            min(r[0] for r in self._rects),
            min(r[1] for r in self._rects),
            max(r[2] for r in self._rects),
            max(r[3] for r in self._rects),
        )

    def area(self):
        return sum((x1 - x0) * (y1 - y0) for x0, y0, x1, y1 in self._rects)

    def contains_point(self, x, y):
        return any(x0 <= x < x1 and y0 <= y < y1
                   for x0, y0, x1, y1 in self._rects)

    def __iter__(self):
        return iter(self.rects())

    def __repr__(self):  # pragma: no cover
        return "NaiveRegion(%r)" % (self._rects,)


def use_naive_regions(display):
    """Make every damage computation on ``display`` use the rect-list
    region instead of the band one."""
    display.new_region = NaiveRegion
