"""Eager layout: the executable specification of deferred geometry.

The toolkit marks a composite's geometry dirty when a child is managed,
unmanaged or destroyed, when a constraint changes, or when a Label
grows, and lays every marked widget out once at the next flush point
(``Display.flush_geometry``).  The specification is the obvious
version: lay the widget out the moment it is marked, once per change.
tests/test_geometry_differential.py drives both through the same
scripts and asserts they agree at every flush checkpoint.
"""


def _layout_now(widget):
    widget.layout()


def use_eager_geometry(display):
    """Make every geometry mark on ``display`` lay its widget out at
    once instead of at the next flush point."""
    display.mark_geometry = _layout_now
