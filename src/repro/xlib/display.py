"""The simulated display server: windows, the event queue, grabs.

``open_display(name)`` returns a per-name singleton, so a Wafe script
that creates a second application shell on ``dec4:0`` really talks to a
second (virtual) server, as in the paper's multi-display example.

The server owns a framebuffer per screen (numpy, 0xRRGGBB per pixel);
drawing happens through :mod:`repro.xlib.graphics`.  Event *synthesis*
helpers (``press_button``, ``type_string``, ...) stand in for a human
at the keyboard -- tests and benchmarks drive whole applications with
them.
"""

import collections
import itertools
from operator import attrgetter

import numpy

from repro.xlib import keysym as _keysym
from repro.xlib import xtypes
from repro.xlib.events import XEvent
from repro.xlib.region import Region


class XError(Exception):
    """A protocol-level error (BadWindow and friends)."""


class Window:
    """One window in the server-side window tree."""

    _ids = itertools.count(0x400001)

    def __init__(self, display, parent, x, y, width, height, border_width=0):
        self.display = display
        self.parent = parent
        self.children = []
        self.wid = next(Window._ids)
        self.x = x
        self.y = y
        self.width = max(1, width)
        self.height = max(1, height)
        self.border_width = border_width
        self.mapped = False
        self.destroyed = False
        self.event_mask = 0
        self.background_pixel = 0xFFFFFF
        self.properties = {}
        self.override_redirect = False
        # "forget": any resize invalidates the whole window (the safe
        # default for size-dependent drawing such as centered text).
        # "northwest": content is anchored at the origin, so a resize
        # only damages the newly revealed L-shaped strip (new \ old).
        self.bit_gravity = "forget"
        # While a widget repaints one damage rect, the toolkit installs
        # the rect here and every drawing primitive clips against it.
        self.paint_clip = None
        # True once the window has painted: from then on it has pixels
        # on screen, and uncovering it must repaint what lies beneath.
        # A window that never painted reveals nothing.
        self.on_screen = False
        if parent is not None:
            parent.children.append(self)

    # -- geometry ------------------------------------------------------

    def absolute_origin(self):
        x, y = 0, 0
        window = self
        while window is not None:
            x += window.x
            y += window.y
            window = window.parent
        return x, y

    def contains_absolute(self, ax, ay):
        ox, oy = self.absolute_origin()
        return ox <= ax < ox + self.width and oy <= ay < oy + self.height

    def viewable(self):
        window = self
        while window is not None:
            if window.destroyed or not window.mapped:
                return False
            window = window.parent
        return True

    # -- lifecycle -----------------------------------------------------

    def map(self):
        if self.destroyed or self.mapped:
            return
        self.mapped = True
        self.display._notify_structure(self, xtypes.MapNotify)
        if self.viewable():
            self.display.damage_subtree(self)

    def absolute_box(self):
        ax, ay = self.absolute_origin()
        return ax, ay, ax + self.width, ay + self.height

    def _uncover_subtree(self):
        """Hand the display the box of every window in this viewable
        subtree that has painted: those pixels are about to lose their
        window (unmap, move)."""
        if not self.viewable():
            return
        display = self.display
        stack = [self]
        while stack:
            window = stack.pop()
            if window.on_screen:
                window.on_screen = False
                display.uncover(window.absolute_box())
            stack.extend(child for child in window.children
                         if child.mapped and not child.destroyed)

    def unmap(self):
        if not self.mapped:
            return
        self._uncover_subtree()
        self.mapped = False
        self.display._notify_structure(self, xtypes.UnmapNotify)

    def destroy(self):
        if self.destroyed:
            return
        # Children are destroyed first, while this window is still
        # viewable, so each uncovers its own box.
        for child in list(self.children):
            child.destroy()
        if self.on_screen and self.viewable():
            self.display.uncover(self.absolute_box())
        self.destroyed = True
        self.mapped = False
        if self.parent is not None and self in self.parent.children:
            self.parent.children.remove(self)
        self.display._notify_structure(self, xtypes.DestroyNotify)
        self.display._forget_window(self)

    def configure(self, x=None, y=None, width=None, height=None,
                  border_width=None):
        old_x, old_y = self.x, self.y
        old_w, old_h = self.width, self.height
        old_box = None
        if self.viewable():
            if x not in (None, old_x) or y not in (None, old_y):
                # The whole subtree moves off its painted pixels.
                self._uncover_subtree()
            elif self.on_screen:
                old_box = self.absolute_box()
        changed = False
        for attr, value in (("x", x), ("y", y), ("width", width),
                            ("height", height), ("border_width", border_width)):
            if value is not None and getattr(self, attr) != value:
                setattr(self, attr, value)
                changed = True
        if changed:
            self.display._notify_structure(self, xtypes.ConfigureNotify)
            if old_box is not None:
                # A shrink uncovers the old box minus the new one.
                self.display.uncover(old_box, self.absolute_box())
            if self.viewable():
                self.display.damage_configure(self, old_x, old_y,
                                              old_w, old_h)

    def raise_window(self):
        """Restack on top of the siblings, damaging the area that the
        formerly overlapping siblings revealed (old occlusion algebra:
        only the region previously covered by later siblings needs a
        repaint -- already-topmost pixels are still correct)."""
        parent = self.parent
        if parent is None or parent.children[-1] is self:
            return
        display = self.display
        revealed = None
        if self.viewable():
            index = parent.children.index(self)
            ox, oy = self.absolute_origin()
            revealed = display.new_region()
            for sibling in parent.children[index + 1:]:
                if not sibling.mapped or sibling.destroyed:
                    continue
                sx, sy = sibling.absolute_origin()
                revealed.add_rect(sx - ox, sy - oy,
                                  sx - ox + sibling.width,
                                  sy - oy + sibling.height)
            revealed.intersect_rect(0, 0, self.width, self.height)
        parent.children.remove(self)
        parent.children.append(self)
        if revealed is not None and not revealed.is_empty():
            display.damage_region_subtree(self, revealed)

    def select_input(self, event_mask):
        self.event_mask = event_mask

    def __repr__(self):  # pragma: no cover
        return "<Window 0x%x %dx%d+%d+%d%s>" % (
            self.wid, self.width, self.height, self.x, self.y,
            " mapped" if self.mapped else "",
        )


class Screen:
    """A screen: root window plus framebuffer."""

    def __init__(self, display, width=1024, height=768):
        self.display = display
        self.width = width
        self.height = height
        self.black_pixel = 0x000000
        self.white_pixel = 0xFFFFFF
        self.framebuffer = numpy.full((height, width), self.white_pixel,
                                      dtype=numpy.uint32)
        self.root = Window(display, None, 0, 0, width, height)
        self.root.mapped = True


class Display:
    """One virtual X server connection."""

    def __init__(self, name=":0"):
        self.name = name
        self._damage = {}  # wid -> (window, region), insertion ordered
        self._painted = set()  # windows painted outside a flush
        self._relayout = {}  # the geometry dirty set: widget -> None
        self._in_damage_flush = False
        self._uncovered = None  # absolute Region awaiting a repaint
        self.render_stats = self._zero_render_stats()
        self.screen = Screen(self)
        self.queue = collections.deque()
        self._time = itertools.count(1000)
        self.pointer_window = None
        self.pointer_x = 0
        self.pointer_y = 0
        self.pointer_state = 0
        self.focus_window = None
        self.grab_window = None
        self.grab_owner_events = False
        self.implicit_grab = None  # active between ButtonPress and Release
        self.selections = {}  # atom name -> (window, owner_callback, time)
        self.closed = False
        self.event_hook = None  # called on every put_event (for app loops)

    # ------------------------------------------------------------------
    # Window management

    @property
    def root(self):
        return self.screen.root

    def create_window(self, parent, x, y, width, height, border_width=0):
        if parent is None:
            parent = self.root
        return Window(self, parent, x, y, width, height, border_width)

    def _forget_window(self, window):
        if self.pointer_window is window:
            self.pointer_window = None
        if self.focus_window is window:
            self.focus_window = None
        if self.grab_window is window:
            self.grab_window = None
        self._damage.pop(window.wid, None)
        self._painted.discard(window)
        self.queue = collections.deque(
            e for e in self.queue if e.window is not window
        )

    def window_at(self, ax, ay, root=None):
        """The deepest viewable window containing an absolute point."""
        window = root if root is not None else self.root
        if not window.mapped or not window.contains_absolute(ax, ay):
            return None
        # Later children are on top.
        for child in reversed(window.children):
            if child.mapped:
                hit = self.window_at(ax, ay, child)
                if hit is not None:
                    return hit
        return window

    # ------------------------------------------------------------------
    # Event queue

    def next_time(self):
        return next(self._time)

    def put_event(self, event):
        if event.time == 0:
            event.time = self.next_time()
        self.queue.append(event)
        if self.event_hook is not None:
            self.event_hook(event)

    def pending(self):
        self.flush_damage()
        return len(self.queue)

    def next_event(self):
        self.flush_damage()
        if not self.queue:
            raise XError("event queue empty")
        return self.queue.popleft()

    def _notify_structure(self, window, event_type):
        if window.event_mask & xtypes.StructureNotifyMask:
            self.put_event(XEvent(event_type, window,
                                  width=window.width, height=window.height))

    # ------------------------------------------------------------------
    # Damage tracking

    def new_region(self):
        """The region factory every damage computation goes through
        (the render differential swaps the rect-list specification in
        here)."""
        return Region()

    @staticmethod
    def _zero_render_stats():
        return {
            "damage_rects": 0,     # rects reported into the accumulator
            "damage_pixels": 0,    # their clipped area (pre-coalescing)
            "expose_series": 0,    # coalesced per-window Expose series
            "expose_events": 0,    # Expose events emitted
            "exposed_pixels": 0,   # area carried by those events
            "draw_calls": 0,       # clipped drawing primitives executed
            "drawn_pixels": 0,     # framebuffer pixels actually written
            "damage_flushes": 0,   # flush points that found damage
        }

    def reset_render_stats(self):
        self.render_stats.update(self._zero_render_stats())

    def record_draw(self, box):
        """Called by graphics primitives with the clipped absolute box."""
        stats = self.render_stats
        stats["draw_calls"] += 1
        stats["drawn_pixels"] += (box[2] - box[0]) * (box[3] - box[1])

    def damage_rect(self, window, x, y, width, height):
        """Report a window-relative dirty rect.  It accumulates
        per-window until a flush point coalesces it into a minimal
        Expose series."""
        if window.destroyed or not window.viewable():
            return
        x0, y0 = max(0, x), max(0, y)
        x1 = min(window.width, x + width)
        y1 = min(window.height, y + height)
        if x0 >= x1 or y0 >= y1:
            return
        stats = self.render_stats
        stats["damage_rects"] += 1
        stats["damage_pixels"] += (x1 - x0) * (y1 - y0)
        entry = self._damage.get(window.wid)
        if entry is None:
            region = self.new_region()
            region.add_rect(x0, y0, x1, y1)
            self._damage[window.wid] = (window, region)
        else:
            entry[1].add_rect(x0, y0, x1, y1)

    def damage_window(self, window):
        self.damage_rect(window, 0, 0, window.width, window.height)

    def damage_region(self, window, region):
        """Report a whole region (window-relative) of damage."""
        for x0, y0, x1, y1 in region.rects():
            self.damage_rect(window, x0, y0, x1 - x0, y1 - y0)

    def damage_subtree(self, window):
        """Full damage for a window and its mapped descendants (map,
        move: every absolute pixel position changed)."""
        self.damage_window(window)
        for child in window.children:
            if child.mapped and not child.destroyed:
                self.damage_subtree(child)

    def damage_region_subtree(self, window, region):
        """Damage a region of a window plus the parts of descendants it
        overlaps (region is window-relative)."""
        self.damage_region(window, region)
        for child in window.children:
            if not child.mapped or child.destroyed:
                continue
            sub = region.copy()
            sub.translate(-child.x, -child.y)
            sub.intersect_rect(0, 0, child.width, child.height)
            if not sub.is_empty():
                self.damage_region_subtree(child, sub)

    def damage_configure(self, window, old_x, old_y, old_w, old_h):
        """Damage after a configure using old-geometry algebra."""
        if (window.x, window.y) != (old_x, old_y):
            # Window content does not move with the window on the shared
            # screen framebuffer, so a move invalidates everything the
            # subtree will repaint at its new absolute position.
            self.damage_subtree(window)
        elif (window.width, window.height) != (old_w, old_h):
            if window.bit_gravity == "northwest":
                # Origin-anchored content: only new \ old is stale.
                grown = self.new_region()
                grown.add_rect(0, 0, window.width, window.height)
                grown.subtract_rect(0, 0, old_w, old_h)
                self.damage_region_subtree(window, grown)
            else:
                # A repainting parent overwrites its children's pixels
                # on the shared framebuffer, so the whole subtree must
                # repaint.
                self.damage_subtree(window)
        # A border_width-only change paints nothing in this simulation.

    def uncover(self, box, keep=None):
        """Note an absolute box whose pixels lost their window (it
        moved, shrank, was unmapped or destroyed), less the box ``keep``
        the window still covers.  The next damage flush repaints the
        union of all such boxes once.

        This server paints no window backgrounds (each client clears
        its own on Expose), so the uncovered pixels are blanked to the
        root background and every window overlapping them is damaged
        there -- the same result as repainting the whole screen."""
        if self._uncovered is None:
            self._uncovered = self.new_region()
        region = self.new_region()
        region.add_rect(*box)
        if keep is not None:
            region.subtract_rect(*keep)
        self._uncovered.union(region)

    def note_paint(self, window):
        """A widget painted ``window`` directly, outside a flush: the
        next flush repaints whatever is stacked above it."""
        self._painted.add(window)

    def _stacking(self):
        """The viewable windows in painting order: a parent before its
        children, a later sibling over an earlier one."""
        order = []
        stack = [self.root]
        while stack:
            window = stack.pop()
            order.append(window)
            stack += [child for child in reversed(window.children)
                      if child.mapped and not child.destroyed]
        return order

    def _damage_above(self, order):
        """Extend the damage, and the windows painted directly since
        the last flush, to every window stacked above them where they
        overlap.  Repainting in stacking order then leaves on top what
        a full repaint would."""
        painted, self._painted = self._painted, set()
        sources = []  # absolute boxes, from windows lower in the stack
        for window in order:
            if sources:
                wx0, wy0, wx1, wy1 = window.absolute_box()
                for x0, y0, x1, y1 in sources:
                    if x0 < wx1 and wx0 < x1 and y0 < wy1 and wy0 < y1:
                        self.damage_rect(window, x0 - wx0, y0 - wy0,
                                         x1 - x0, y1 - y0)
            entry = self._damage.get(window.wid)
            if entry is not None:
                ox, oy = window.absolute_origin()
                x0, y0, x1, y1 = entry[1].bounds()
                sources.append((ox + x0, oy + y0, ox + x1, oy + y1))
            if window in painted:
                sources.append(window.absolute_box())

    def _repaint_uncovered(self):
        region, self._uncovered = self._uncovered, None
        region.intersect_rect(0, 0, self.screen.width, self.screen.height)
        if region.is_empty():
            return
        framebuffer = self.screen.framebuffer
        pixel = self.root.background_pixel
        for box in region.rects():
            framebuffer[box[1]:box[3], box[0]:box[2]] = pixel
            self.record_draw(box)
        self.damage_region_subtree(self.root, region)

    def take_expose_series(self, window, region):
        """Coalesce a region into a count-series of Expose events
        (returned, not queued).  All but the last event carry a positive
        ``count`` -- the X contract letting clients defer redraw until
        the series ends."""
        rects = region.rects()
        events = []
        if not rects:
            return events
        stats = self.render_stats
        stats["expose_series"] += 1
        total = len(rects)
        for i, (x0, y0, x1, y1) in enumerate(rects):
            stats["expose_events"] += 1
            stats["exposed_pixels"] += (x1 - x0) * (y1 - y0)
            events.append(XEvent(xtypes.Expose, window, x=x0, y=y0,
                                 width=x1 - x0, height=y1 - y0,
                                 count=total - 1 - i))
        return events

    def mark_geometry(self, widget):
        """Note that ``widget`` must lay its children out again.  Marks
        accumulate until the next flush point, so a dialog built one
        child at a time is laid out once (XawFormDoLayout)."""
        self._relayout[widget] = None

    def flush_geometry(self):
        """The layout pass: lay out every marked widget, ancestors
        first, so a parent settles its children's sizes before they
        arrange their own.  Marks made during the pass are drained by a
        further round.  Geometry reads call this before they look."""
        while self._relayout:
            dirty, self._relayout = self._relayout, {}
            for widget in sorted(dirty, key=attrgetter("depth")):
                if not widget.destroyed:
                    widget.layout()

    def flush_damage(self):
        """Flush point: run the layout pass, then coalesce accumulated
        damage into minimal Expose series and queue them.  Runs
        automatically before the queue is inspected, so callers of
        pending()/next_event() always observe the events their damage
        implies."""
        self.flush_geometry()
        if self._in_damage_flush:
            return
        if self._uncovered is not None:
            self._repaint_uncovered()
        if not (self._damage or self._painted):
            return
        self._in_damage_flush = True
        try:
            while self._damage or self._painted:
                order = self._stacking()
                self._damage_above(order)
                if not self._damage:
                    break
                damage, self._damage = self._damage, {}
                self.render_stats["damage_flushes"] += 1
                for window in order:
                    entry = damage.get(window.wid)
                    if entry is None or not (window.event_mask &
                                             xtypes.ExposureMask):
                        continue
                    for event in self.take_expose_series(window, entry[1]):
                        self.put_event(event)
        finally:
            self._in_damage_flush = False

    # ------------------------------------------------------------------
    # Grabs, focus, selections

    def grab_pointer(self, window, owner_events=False):
        self.grab_window = window
        self.grab_owner_events = owner_events

    def ungrab_pointer(self):
        self.grab_window = None

    def set_input_focus(self, window):
        self.focus_window = window

    def set_selection_owner(self, selection, window, convert_callback):
        """Own a selection; the callback produces (type, value) on demand."""
        previous = self.selections.get(selection)
        if previous is not None and previous[0] is not window:
            old_window = previous[0]
            if old_window is not None and not old_window.destroyed:
                self.put_event(XEvent(xtypes.SelectionClear, old_window,
                                      selection=selection))
        self.selections[selection] = (window, convert_callback,
                                      self.next_time())

    def get_selection_owner(self, selection):
        entry = self.selections.get(selection)
        return entry[0] if entry else None

    def convert_selection(self, selection, target, requestor):
        """Ask the owner for the selection; delivers SelectionNotify."""
        entry = self.selections.get(selection)
        if entry is None:
            self.put_event(XEvent(xtypes.SelectionNotify, requestor,
                                  selection=selection, target=target,
                                  property=None, data=None))
            return
        _window, callback, _t = entry
        data = callback(target)
        self.put_event(XEvent(xtypes.SelectionNotify, requestor,
                              selection=selection, target=target,
                              property="SELECTION", data=data))

    # ------------------------------------------------------------------
    # Event synthesis (the "user at the keyboard")

    def _deliver_target(self, window):
        """Honour an active pointer grab the way the server does."""
        if self.grab_window is None and self.implicit_grab is not None:
            # The implicit grab between ButtonPress and ButtonRelease:
            # motion and release go to the pressed window (drags work).
            if self.implicit_grab.destroyed:
                self.implicit_grab = None
            else:
                return self.implicit_grab
        if self.grab_window is None or window is None:
            return window
        # owner_events: events in the grab client's windows go there
        # normally; everything else is reported to the grab window.
        probe = window
        while probe is not None:
            if probe is self.grab_window:
                return window
            probe = probe.parent
        if self.grab_owner_events:
            return window
        return self.grab_window

    def _crossing(self, new_window, ax, ay):
        old = self.pointer_window
        if old is new_window:
            return
        if old is not None and not old.destroyed and (
                old.event_mask & xtypes.LeaveWindowMask):
            ox, oy = old.absolute_origin()
            self.put_event(XEvent(xtypes.LeaveNotify, old,
                                  x=ax - ox, y=ay - oy,
                                  x_root=ax, y_root=ay,
                                  state=self.pointer_state))
        if new_window is not None and (
                new_window.event_mask & xtypes.EnterWindowMask):
            nx, ny = new_window.absolute_origin()
            self.put_event(XEvent(xtypes.EnterNotify, new_window,
                                  x=ax - nx, y=ay - ny,
                                  x_root=ax, y_root=ay,
                                  state=self.pointer_state))
        self.pointer_window = new_window

    def warp_pointer(self, ax, ay):
        """Move the pointer; generates Enter/Leave crossings."""
        self.flush_geometry()  # hit-testing reads window geometry
        self.pointer_x = ax
        self.pointer_y = ay
        self._crossing(self.window_at(ax, ay), ax, ay)

    def motion(self, ax, ay):
        self.warp_pointer(ax, ay)
        window = self._deliver_target(self.window_at(ax, ay))
        if window is not None and (
                window.event_mask & (xtypes.PointerMotionMask |
                                     xtypes.ButtonMotionMask)):
            ox, oy = window.absolute_origin()
            self.put_event(XEvent(xtypes.MotionNotify, window,
                                  x=ax - ox, y=ay - oy, x_root=ax, y_root=ay,
                                  state=self.pointer_state))

    def press_button(self, ax, ay, button=1):
        self.warp_pointer(ax, ay)
        target = self._deliver_target(self.window_at(ax, ay))
        if target is None:
            return
        ox, oy = target.absolute_origin()
        self.put_event(XEvent(xtypes.ButtonPress, target, button=button,
                              x=ax - ox, y=ay - oy, x_root=ax, y_root=ay,
                              state=self.pointer_state))
        if self.pointer_state & (xtypes.Button1Mask | xtypes.Button2Mask |
                                 xtypes.Button3Mask) == 0:
            self.implicit_grab = target
        self.pointer_state |= xtypes.Button1Mask << (button - 1)

    def release_button(self, ax, ay, button=1):
        self.warp_pointer(ax, ay)
        self.pointer_state &= ~(xtypes.Button1Mask << (button - 1))
        target = self._deliver_target(self.window_at(ax, ay))
        if self.pointer_state & (xtypes.Button1Mask | xtypes.Button2Mask |
                                 xtypes.Button3Mask) == 0:
            self.implicit_grab = None
        if target is None:
            return
        ox, oy = target.absolute_origin()
        self.put_event(XEvent(xtypes.ButtonRelease, target, button=button,
                              x=ax - ox, y=ay - oy, x_root=ax, y_root=ay,
                              state=self.pointer_state))

    def click(self, ax, ay, button=1):
        self.press_button(ax, ay, button)
        self.release_button(ax, ay, button)

    def press_key(self, window, keycode, state=0, release=True):
        """Key press (and release) delivered to a window (or the focus)."""
        if window is None:
            window = self.focus_window or self.pointer_window or self.root
        self.flush_geometry()
        ox, oy = window.absolute_origin()
        x = self.pointer_x - ox
        y = self.pointer_y - oy
        self.put_event(XEvent(xtypes.KeyPress, window, keycode=keycode,
                              state=state, x=x, y=y,
                              x_root=self.pointer_x, y_root=self.pointer_y))
        if release:
            self.put_event(XEvent(xtypes.KeyRelease, window, keycode=keycode,
                                  state=state, x=x, y=y,
                                  x_root=self.pointer_x,
                                  y_root=self.pointer_y))

    def type_string(self, window, text, release=True):
        """Type text: shift keys are pressed around shifted characters,
        exactly as the paper's xev example requires."""
        shift_code, _ = _keysym.keysym_to_keycode("Shift_L")
        for ch in text:
            keycode, shifted = _keysym.char_to_keycode(ch)
            if keycode == 0:
                continue
            if shifted:
                self.press_key(window, shift_code, release=release)
                self.press_key(window, keycode, state=xtypes.ShiftMask,
                               release=release)
            else:
                self.press_key(window, keycode, release=release)

    def close(self):
        self.closed = True
        self.queue.clear()
        self._damage.clear()
        self._painted.clear()
        self._relayout.clear()


_displays = {}


def open_display(name=":0"):
    """Open (or reuse) the virtual display with this name."""
    display = _displays.get(name)
    if display is None or display.closed:
        display = Display(name)
        _displays[name] = display
    return display


def close_display(name):
    """Tear down one named virtual display and drop it from the cache
    (per-session displays would otherwise accumulate for the life of
    the server).  Safe no-op for unknown names."""
    display = _displays.pop(name, None)
    if display is not None:
        display.close()


def close_all_displays():
    """Tear down every virtual display (test isolation)."""
    for display in _displays.values():
        display.close()
    _displays.clear()
