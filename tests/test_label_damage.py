"""A Label's text change repaints only the glyphs it touches.

``sV l label {...}`` on a realized Label damages, on each line, the
span from the first glyph whose character or position changed to the
ink end of the longer line (``Label._changed_rects``); a change in the
number of lines damages the ink of both texts.  The differential
drives random re-labelling sequences -- shared prefixes, shrinking and
empty text, several lines, a left bitmap, every justification and
font -- and holds the screen byte-identical to a full repaint
(tests/oracles/render.py) after each one.
"""

import random

import pytest

from repro.core import make_wafe
from repro.xlib import close_all_displays
from tests.oracles.render import full_repaint
from tests.test_raster_differential import FONTS

#: Narrow glyphs ink past their advance; no Tcl braces or backslashes.
ALPHABET = "ail.,:;'|!wmWM@ bxyz0123456789-_/"


@pytest.fixture
def wafe():
    close_all_displays()
    yield make_wafe()
    close_all_displays()


def assert_like_full_repaint(wafe, context):
    framebuffer = wafe.app.default_display.screen.framebuffer
    assert (framebuffer == full_repaint(wafe.app)).all(), context


@pytest.mark.parametrize("old, new", [
    ("ai", "a"), ("abi", "ab"), ("i", ""), ("wi", "w")])
def test_shrinking_text_leaves_no_stale_ink(wafe, old, new):
    """``i`` advances 3 px in the proportional font but paints 5: the
    damage must cover its ink, not its advance."""
    wafe.run_script("form f topLevel\n"
                    "label l f label {%s} font variable width 100 "
                    "justify left borderWidth 0\n"
                    "realize; sync" % old)
    wafe.run_script("sV l label {%s}; sync" % new)
    assert_like_full_repaint(wafe, (old, new))


def test_line_count_change_leaves_no_stale_ink(wafe):
    wafe.run_script("form f topLevel\n"
                    "label l f label {i\nli} font variable width 100 "
                    "height 60 justify left\n"
                    "realize; sync")
    wafe.run_script("sV l label {l}; sync")
    assert_like_full_repaint(wafe, "two lines to one")


def test_changed_suffix_paints_less_than_the_union_of_extents(wafe):
    """The dashboard's re-labelling: only the changed counter digits
    and word are repainted, not the whole line."""
    old, new = "eth0 rx 0001234 alpha", "eth0 rx 0001299 bravo"
    wafe.run_script("form f topLevel\n"
                    "label l f label {%s} width 260 borderWidth 0 "
                    "justify left\n"
                    "realize; sync" % old)
    label = wafe.lookup_widget("l")
    font = label.resources["font"]
    stats = wafe.app.default_display.render_stats

    def drawn(action):
        wafe.run_script("sync")
        before = stats["drawn_pixels"]
        action()
        wafe.run_script("sync")
        return stats["drawn_pixels"] - before

    changed = drawn(lambda: wafe.run_script("sV l label {%s}" % new))
    assert_like_full_repaint(wafe, new)
    (x, top, __), = label._line_layout(new)
    right = x + max(font.text_width(old), font.text_width(new),
                    font.ink_width(old), font.ink_width(new))
    union = drawn(lambda: label.update_rects(
        [(x, top, right, top + font.height)]))
    assert 0 < changed < union


def random_text(rng, previous):
    """Mostly an edit of the previous text: a changed suffix, a cut,
    an insertion; sometimes fresh text, an extra line or nothing."""
    roll = rng.random()
    if roll < 0.08:
        return ""
    if roll < 0.3 or not previous:
        lines = rng.choice([1, 1, 1, 2, 3])
        return "\n".join(
            "".join(rng.choice(ALPHABET) for __ in range(rng.randint(0, 14)))
            for __ in range(lines))
    keep = rng.randint(0, len(previous))
    if roll < 0.5:
        return previous[:keep]
    if roll < 0.6:
        return previous[:keep] + "\n" + previous[keep:]
    tail = "".join(rng.choice(ALPHABET) for __ in range(rng.randint(0, 8)))
    return previous[:keep] + tail


@pytest.mark.parametrize("seed", range(8))
def test_relabelling_matches_full_repaint(wafe, seed, tmp_path):
    rng = random.Random(seed)
    icon = tmp_path / "icon.xbm"
    icon.write_text("#define i_width 9\n#define i_height 5\n"
                    "static char i_bits[] = {0x1f, 0x01, 0x11, 0x01, 0x0f,"
                    " 0x01, 0x11, 0x01, 0x1f, 0x01};\n")
    lines = ["form f topLevel"]
    texts = {}
    previous = None
    for i in range(4):
        name = "l%d" % i
        texts[name] = random_text(rng, "")
        options = [
            "label {%s}" % texts[name],
            "font %s" % rng.choice(FONTS),
            "justify %s" % rng.choice(["left", "center", "right"]),
            "width %d" % rng.randint(40, 220),
            "height %d" % rng.randint(14, 90),
            "resize %s" % rng.choice(["true", "false"]),
        ]
        if rng.random() < 0.3:
            options.append("leftBitmap %s" % icon)
        if previous is not None:
            options.append("fromVert %s" % previous)
        lines.append("label %s f %s" % (name, " ".join(options)))
        previous = name
    wafe.run_script("\n".join(lines) + "\nrealize; sync")
    assert_like_full_repaint(wafe, (seed, "setup"))
    for step in range(30):
        name = rng.choice(sorted(texts))
        texts[name] = random_text(rng, texts[name])
        wafe.run_script("sV %s label {%s}; sync" % (name, texts[name]))
        assert_like_full_repaint(wafe, (seed, step, name, texts[name]))
