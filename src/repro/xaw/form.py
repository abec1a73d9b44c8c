"""Form, Box, Paned, Viewport, Dialog: the Athena geometry managers.

Form is the layout workhorse of every Wafe example in the paper: its
constraint resources ``fromVert``/``fromHoriz`` chain children relative
to each other ("%label result top ... fromVert input").  Box flows
children left-to-right, Paned stacks them, Viewport clips one child,
Dialog is a Form with a label and a value.
"""

from repro.xt import resources as R
from repro.xt.resources import res
from repro.xt.widget import Constraint, Composite, WidgetError
from repro.xaw.simple import ThreeD


def _attachment(child, name):
    """The sibling ``child`` is attached to by ``fromVert`` or
    ``fromHoriz``.  One that is destroyed or unmanaged counts as unset
    and attaches the child to the Form's edge, so where a child goes
    depends on the Form as it is, never on an earlier layout."""
    sibling = child.constraints.get(name)
    if sibling is None or sibling.destroyed or not sibling.managed:
        return None
    return sibling


class Form(Constraint):
    CLASS_NAME = "Form"
    RESOURCES = [
        res("defaultDistance", R.R_INT, 4, class_="Thickness"),
    ]
    CONSTRAINT_RESOURCES = [
        res("fromVert", R.R_WIDGET, None),
        res("fromHoriz", R.R_WIDGET, None),
        res("horizDistance", R.R_INT, 4),
        res("vertDistance", R.R_INT, 4),
        res("top", R.R_STRING, "rubber"),
        res("bottom", R.R_STRING, "rubber"),
        res("left", R.R_STRING, "rubber"),
        res("right", R.R_STRING, "rubber"),
        res("resizable", R.R_BOOLEAN, False),
    ]

    def resolve_constraint(self, child, name, value):
        """String-to-Widget for fromVert/fromHoriz as they are set: a
        name that is no sibling fails the command that set it, never a
        later layout."""
        if name not in ("fromVert", "fromHoriz"):
            return value
        if not isinstance(value, str):
            return value  # a widget given programmatically
        if value == "":
            return None
        for sibling in self.children:
            if sibling.name == value:
                return sibling
        raise WidgetError(
            'constraint refers to unknown sibling "%s"' % value)

    def layout(self):
        """Place children honouring fromVert/fromHoriz chains."""
        placed = {}
        remaining = [c for c in self.children if c.managed]
        progress = True
        while remaining and progress:
            progress = False
            for child in list(remaining):
                above = _attachment(child, "fromVert")
                left = _attachment(child, "fromHoriz")
                if above is not None and above not in placed:
                    continue
                if left is not None and left not in placed:
                    continue
                x = child.constraints.get("horizDistance", 4)
                y = child.constraints.get("vertDistance", 4)
                if left is not None:
                    x += placed[left][0] + placed[left][2]
                if above is not None:
                    y += placed[above][1] + placed[above][3]
                placed[child] = self._place(child, x, y)
                remaining.remove(child)
                progress = True
        # Constraint cycle: place leftovers at the default offset.
        for child in remaining:
            self._place(child, child.constraints.get("horizDistance", 4),
                        child.constraints.get("vertDistance", 4))

    @staticmethod
    def _place(child, x, y):
        """Move ``child`` to (x, y) at its preferred size; returns its
        outer box (x, y, width, height) borders included."""
        width, height = child.preferred_size()
        child.resources["x"] = x
        child.resources["y"] = y
        child.resources["width"] = width
        child.resources["height"] = height
        if child.window is not None:
            child.window.configure(x=x, y=y, width=max(1, width),
                                   height=max(1, height))
        border = 2 * child.resources["borderWidth"]
        return (x, y, width + border, height + border)

    def preferred_size(self):
        if self.resources["width"] > 0 and self.resources["height"] > 0:
            return (self.resources["width"], self.resources["height"])
        self.layout()
        max_x = max_y = 1
        for child in self.children:
            if not child.managed:
                continue
            border = 2 * child.resources["borderWidth"]
            max_x = max(max_x, child.resources["x"] +
                        child.resources["width"] + border)
            max_y = max(max_y, child.resources["y"] +
                        child.resources["height"] + border)
        distance = self.resources["defaultDistance"]
        return (max(self.resources["width"], max_x + distance),
                max(self.resources["height"], max_y + distance))

    @staticmethod
    def allow_resize(child, allow):
        """XawFormAllowResize."""
        child.constraints["resizable"] = bool(allow)


class Box(Composite):
    """Children flow left-to-right, wrapping at the box width."""

    CLASS_NAME = "Box"
    RESOURCES = [
        res("orientation", R.R_ORIENTATION, "vertical"),
        res("hSpace", R.R_DIMENSION, 4),
        res("vSpace", R.R_DIMENSION, 4),
    ]

    def layout(self):
        h_space = self.resources["hSpace"]
        v_space = self.resources["vSpace"]
        horizontal = self.resources["orientation"] == "horizontal"
        x, y = h_space, v_space
        row_height = 0
        limit = self.resources["width"] or (self.window.width
                                            if self.window else 0)
        for child in self.children:
            if not child.managed:
                continue
            width, height = child.preferred_size()
            border = 2 * child.resources["borderWidth"]
            if horizontal and limit and x > h_space and \
                    x + width + border > limit:
                x = h_space
                y += row_height + v_space
                row_height = 0
            child.resources["x"] = x
            child.resources["y"] = y
            child.resources["width"] = width
            child.resources["height"] = height
            if child.window is not None:
                child.window.configure(x=x, y=y, width=max(1, width),
                                       height=max(1, height))
            if horizontal:
                x += width + border + h_space
                row_height = max(row_height, height + border)
            else:
                y += height + border + v_space
        return

    def preferred_size(self):
        if self.resources["width"] > 0 and self.resources["height"] > 0:
            return (self.resources["width"], self.resources["height"])
        self.layout()
        max_x = max_y = 1
        for child in self.children:
            if not child.managed:
                continue
            border = 2 * child.resources["borderWidth"]
            max_x = max(max_x, child.resources["x"] +
                        child.resources["width"] + border)
            max_y = max(max_y, child.resources["y"] +
                        child.resources["height"] + border)
        return (max_x + self.resources["hSpace"],
                max_y + self.resources["vSpace"])


class Paned(Constraint):
    """Vertically (or horizontally) stacked panes with drag grips.

    When ``showGrips`` is on, a Grip sits at the boundary below each
    pane (except the last); dragging it with button 1 adjusts the
    pane's ``preferredPaneSize``, the Xaw resize interaction.
    """

    CLASS_NAME = "Paned"
    RESOURCES = [
        res("orientation", R.R_ORIENTATION, "vertical"),
        res("internalBorderWidth", R.R_DIMENSION, 1),
        res("showGrips", R.R_BOOLEAN, True),
        res("gripIndent", R.R_POSITION, 10),
    ]
    CONSTRAINT_RESOURCES = [
        res("min", R.R_DIMENSION, 1),
        res("max", R.R_DIMENSION, 100000),
        res("preferredPaneSize", R.R_DIMENSION, 0),
        res("showGrip", R.R_BOOLEAN, True),
        res("skipAdjust", R.R_BOOLEAN, False),
    ]

    def initialize(self):
        self._grips = {}  # pane widget -> Grip
        self._drag = None  # (pane, start_root, start_size)
        self._making_grips = False

    def panes(self):
        from repro.xaw.grip import Grip

        return [c for c in self.children
                if c.managed and not isinstance(c, Grip)]

    def realize_hook(self):
        self._ensure_grips()

    def defer_layout(self):
        # The grips follow the panes as the change happens (Xaw's
        # ChangeManaged); only their placement waits for the layout.
        self._ensure_grips()
        super().defer_layout()

    def _ensure_grips(self):
        """Every managed pane but the last has a managed grip below it
        (unless its showGrip is off); other grips are unmanaged, and a
        destroyed pane's grip goes with it."""
        from repro.xaw.grip import Grip

        if not self.resources["showGrips"] or self._making_grips:
            return
        self._making_grips = True  # grip changes mark this Paned again
        try:
            wanted = [pane for pane in self.panes()[:-1]
                      if pane.constraints.get("showGrip", True)]
            for pane, grip in list(self._grips.items()):
                if pane.destroyed:
                    del self._grips[pane]
                    grip.destroy()
                elif pane not in wanted and grip.managed:
                    self.unmanage_child(grip)
            for pane in wanted:
                grip = self._grips.get(pane)
                if grip is None:
                    grip = Grip("grip-%s" % pane.name, self)
                    grip.add_callback(
                        "callback",
                        lambda g, data, _pane=pane: self._grip_event(
                            _pane, data))
                    self._grips[pane] = grip
                elif not grip.managed:
                    self.manage_child(grip)
        finally:
            self._making_grips = False

    def _grip_event(self, pane, data):
        vertical = self.resources["orientation"] == "vertical"
        position = data.y if vertical else data.x
        if data.action == "start":
            size = (pane.resources["height"] if vertical
                    else pane.resources["width"])
            self._drag = (pane, position, size)
            return
        if self._drag is None or self._drag[0] is not pane:
            return
        __, origin, start_size = self._drag
        new_size = max(pane.constraints.get("min", 1),
                       min(pane.constraints.get("max", 100000),
                           start_size + (position - origin)))
        pane.constraints["preferredPaneSize"] = new_size
        self.layout()
        if data.action == "commit":
            self._drag = None

    def layout(self):
        gap = self.resources["internalBorderWidth"]
        vertical = self.resources["orientation"] == "vertical"
        offset = 0
        breadth = self.resources["width"] if vertical \
            else self.resources["height"]
        for child in self.panes():
            width, height = child.preferred_size()
            preferred = child.constraints.get("preferredPaneSize") or 0
            if preferred:
                if vertical:
                    height = preferred
                else:
                    width = preferred
            child.resources["x"] = 0 if vertical else offset
            child.resources["y"] = offset if vertical else 0
            child.resources["width"] = width
            child.resources["height"] = height
            if child.window is not None:
                child.window.configure(
                    x=child.resources["x"], y=child.resources["y"],
                    width=max(1, width), height=max(1, height))
            offset += (height if vertical else width) + gap
            grip = self._grips.get(child)
            if grip is not None:
                size = grip.resources["gripSize"]
                indent = self.resources["gripIndent"]
                extent = max(breadth, width if vertical else height, size)
                grip.resources["x"] = (max(0, extent - indent - size)
                                       if vertical else offset - gap)
                grip.resources["y"] = (offset - gap
                                       if vertical
                                       else max(0, extent - indent - size))
                grip.resources["width"] = size
                grip.resources["height"] = size
                if grip.window is not None:
                    grip.window.configure(
                        x=grip.resources["x"], y=grip.resources["y"],
                        width=size, height=size)
                    grip.window.raise_window()

    def preferred_size(self):
        if self.resources["width"] > 0 and self.resources["height"] > 0:
            return (self.resources["width"], self.resources["height"])
        vertical = self.resources["orientation"] == "vertical"
        gap = self.resources["internalBorderWidth"]
        total = 0
        breadth = 1
        for child in self.panes():
            width, height = child.preferred_size()
            preferred = child.constraints.get("preferredPaneSize") or 0
            if preferred:
                if vertical:
                    height = preferred
                else:
                    width = preferred
            if vertical:
                total += height + gap
                breadth = max(breadth, width)
            else:
                total += width + gap
                breadth = max(breadth, height)
        if vertical:
            return (max(1, breadth), max(1, total))
        return (max(1, total), max(1, breadth))


class Viewport(Composite):
    """Clips a single child; scrolling via x/y offset.

    With ``allowVert`` (or ``forceBars``) a real Scrollbar child is
    managed along the right edge, its thumb reflecting the visible
    fraction; dragging the thumb scrolls the clipped child, and
    programmatic scrolling moves the thumb -- the Xaw coupling.
    """

    CLASS_NAME = "Viewport"
    RESOURCES = [
        res("allowHoriz", R.R_BOOLEAN, False),
        res("allowVert", R.R_BOOLEAN, False),
        res("forceBars", R.R_BOOLEAN, False),
        res("useBottom", R.R_BOOLEAN, False),
        res("useRight", R.R_BOOLEAN, True),
    ]

    def initialize(self):
        self.scroll_x = 0
        self.scroll_y = 0
        self.vertical_bar = None
        if self.resources["allowVert"] or self.resources["forceBars"]:
            from repro.xaw.scrollbar import Scrollbar

            self.vertical_bar = Scrollbar(
                "vertical", self, args={"orientation": "vertical"})
            self.vertical_bar.add_callback("jumpProc", self._thumb_moved)

    def _thumb_moved(self, bar, fraction):
        ch = self._content_height()
        self.scroll_to(y=int(fraction * ch))

    def _content(self):
        for child in self.children:
            if child is not self.vertical_bar and child.managed:
                return child
        return None

    def _content_height(self):
        child = self._content()
        if child is None:
            return 1
        return max(1, child.preferred_size()[1])

    def _view_width(self):
        width = self.resources["width"] or (
            self.window.width if self.window else 100)
        if self.vertical_bar is not None:
            width -= self.vertical_bar.resources["thickness"]
        return max(1, width)

    def layout(self):
        view_w = self._view_width()
        view_h = max(1, self.resources["height"] or
                     (self.window.height if self.window else 100))
        child = self._content()
        if child is not None:
            width, height = child.preferred_size()
            child.resources["x"] = -self.scroll_x
            child.resources["y"] = -self.scroll_y
            child.resources["width"] = width
            child.resources["height"] = height
            if child.window is not None:
                child.window.configure(x=-self.scroll_x, y=-self.scroll_y,
                                       width=max(1, width),
                                       height=max(1, height))
        if self.vertical_bar is not None:
            bar = self.vertical_bar
            bar.resources["x"] = view_w
            bar.resources["y"] = 0
            bar.resources["width"] = bar.resources["thickness"]
            bar.resources["height"] = view_h
            if bar.window is not None:
                bar.window.configure(x=view_w, y=0,
                                     width=bar.resources["thickness"],
                                     height=view_h)
            content_h = self._content_height()
            bar.set_thumb(top=self.scroll_y / content_h,
                          shown=min(1.0, view_h / content_h))

    def scroll_to(self, x=None, y=None):
        if x is not None:
            self.scroll_x = max(0, x)
        if y is not None:
            self.scroll_y = max(0, y)
        self.layout()


class Dialog(Form):
    """A Form with a label and an optional editable value."""

    CLASS_NAME = "Dialog"
    RESOURCES = [
        res("label", R.R_STRING, ""),
        res("value", R.R_STRING, None),
        res("icon", R.R_BITMAP, None),
    ]

    def initialize(self):
        from repro.xaw.label import Label as LabelWidget

        self._label_child = LabelWidget(
            "label", self, args={"label": self.resources.get("label") or "",
                                 "borderWidth": "0"})
        self._value_child = None
        if self.resources.get("value") is not None:
            from repro.xaw.text import AsciiText

            self._value_child = AsciiText(
                "value", self,
                args={"string": self.resources["value"],
                      "editType": "edit", "fromVert": "label"})

    def get_value_string(self, name):
        if name == "value" and self._value_child is not None:
            return self._value_child.resources.get("string") or ""
        return super().get_value_string(name)

    def set_values_hook(self, old, changed):
        if "label" in changed and self._label_child is not None:
            self._label_child.set_values(
                {"label": self.resources.get("label") or ""})
        if "value" in changed and self._value_child is not None:
            self._value_child.set_values(
                {"string": self.resources.get("value") or ""})
