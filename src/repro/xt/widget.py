"""The widget core: classes, resources, lifecycle, and geometry hooks.

Mirrors the Xt object system: ``Core`` (here :class:`Widget`),
``Composite`` (children + geometry management) and ``Constraint``
(per-child constraint resources, used by Form).  Python subclassing
stands in for the C class-record chaining: a widget class's effective
resource list is the concatenation along the MRO, just as Xt
concatenates superclass resource lists -- which is what makes
``XtGetResourceList`` on Label report Core+Simple+ThreeD+Label.
"""

from repro.tcl.errors import TclError
from repro.xlib import xtypes
from repro.xt import resources as R
from repro.xt.callbacks import CallbackList
from repro.xt.converters import shareable
from repro.xt.resources import res
from repro.xt.translations import merge_tables, parse_translation_table


class WidgetError(TclError):
    """Widget-level usage errors (bad parent, duplicate name, ...)."""


#: The 18 Core resources (X11R5 ordering, as the paper's
#: getResourceList output shows them).
CORE_RESOURCES = [
    res("destroyCallback", R.R_CALLBACK),
    res("ancestorSensitive", R.R_BOOLEAN, True),
    res("x", R.R_POSITION, 0),
    res("y", R.R_POSITION, 0),
    res("width", R.R_DIMENSION, 0),
    res("height", R.R_DIMENSION, 0),
    res("borderWidth", R.R_DIMENSION, 1),
    res("sensitive", R.R_BOOLEAN, True),
    res("screen", R.R_SCREEN, None),
    res("depth", R.R_INT, 24),
    res("colormap", R.R_COLORMAP, "default"),
    res("background", R.R_PIXEL, "XtDefaultBackground"),
    res("backgroundPixmap", R.R_PIXMAP, None),
    res("borderColor", R.R_PIXEL, "XtDefaultForeground"),
    res("borderPixmap", R.R_PIXMAP, None),
    res("mappedWhenManaged", R.R_BOOLEAN, True),
    res("translations", R.R_TRANSLATIONS, None),
    res("accelerators", R.R_ACCELERATORS, None),
]


class Widget:
    """Core: the base of every widget."""

    CLASS_NAME = "Core"
    RESOURCES = CORE_RESOURCES
    CONSTRAINT_RESOURCES = []
    ACTIONS = {}
    DEFAULT_TRANSLATIONS = None
    IS_SHELL = False

    # ------------------------------------------------------------------
    # Class-level introspection (XtGetResourceList etc.)

    @classmethod
    def class_resources(cls):
        """The effective resource list: superclasses first."""
        cached = cls.__dict__.get("_resource_cache")
        if cached is not None:
            return cached
        lists = []
        for klass in reversed(cls.__mro__):
            own = klass.__dict__.get("RESOURCES")
            if own:
                lists.append(own)
        merged = R.merge_resource_lists(*lists)
        cls._resource_cache = merged
        return merged

    @classmethod
    def class_resource_map(cls):
        cached = cls.__dict__.get("_resource_map_cache")
        if cached is not None:
            return cached
        mapping = {r.name: r for r in cls.class_resources()}
        cls._resource_map_cache = mapping
        return mapping

    @classmethod
    def class_quark(cls):
        """The interned Xrm quark of this widget class's name, cached
        per class (the X11R5 per-class quark chain)."""
        cached = cls.__dict__.get("_class_quark_cache")
        if cached is None:
            cached = cls._class_quark_cache = R.quark(cls.CLASS_NAME)
        return cached

    @classmethod
    def class_actions(cls):
        cached = cls.__dict__.get("_action_cache")
        if cached is not None:
            return cached
        actions = {}
        for klass in reversed(cls.__mro__):
            own = klass.__dict__.get("ACTIONS")
            if own:
                actions.update(own)
        cls._action_cache = actions
        return actions

    @classmethod
    def class_constraint_map(cls):
        """The constraint resources this class imposes on its children
        (shared: callers must not mutate it)."""
        cached = cls.__dict__.get("_constraint_map_cache")
        if cached is not None:
            return cached
        mapping = {}
        for klass in reversed(cls.__mro__):
            own = klass.__dict__.get("CONSTRAINT_RESOURCES")
            if own:
                for resource in own:
                    mapping[resource.name] = resource
        cls._constraint_map_cache = mapping
        return mapping

    @classmethod
    def class_translations(cls):
        """The parsed DEFAULT_TRANSLATIONS, once per class.  Tables are
        immutable and sequence progress lives on each widget, so every
        instance shares this one."""
        if "_translations_cache" not in cls.__dict__:
            source = cls.DEFAULT_TRANSLATIONS
            cls._translations_cache = (parse_translation_table(source)
                                       if source else None)
        return cls._translations_cache

    # ------------------------------------------------------------------
    # Creation

    def __init__(self, name, parent, args=None, managed=True, app=None):
        self.name = name
        self.parent = parent
        self.children = []
        self.managed = False
        self.realized = False
        self.destroyed = False
        self.window = None
        self.resources = {}
        self.constraints = {}
        # XtInstallAccelerators: (table, source_widget) pairs consulted
        # when this widget's own translations don't match an event.
        self.accelerator_bindings = []
        # Interned quark chains and the Xrm search list, both cached on
        # the instance (the search list is revalidated against the
        # database generation by XtAppContext.resource_search_list).
        self._path_quarks = None
        self._xrm_search = None
        # Expose events with count > 0 accumulate here until the series
        # ends (count == 0) and the batch paints in one pass.
        self._expose_batch = []
        if parent is not None:
            self.app = parent.app
            self.depth = parent.depth + 1
        else:
            if app is None:
                raise WidgetError("root widget needs an app context")
            self.app = app
            self.depth = 0
        self._initialize_resources(args or {})
        self.initialize()
        # Linked only once creation has succeeded: a create that fails
        # in conversion or in its initialize hook leaves no child behind.
        if parent is not None:
            parent.children.append(self)
            if managed:
                parent.manage_child(self)

    def _initialize_resources(self, args):
        constraint_map = (self.parent.class_constraint_map()
                          if self.parent is not None else {})
        resource_map = self.class_resource_map()
        unknown = [key for key in args
                   if key not in resource_map and key not in constraint_map]
        if unknown:
            raise WidgetError(
                'unknown resource "%s" for widget class %s'
                % (unknown[0], self.CLASS_NAME)
            )
        converters = self.app.converters
        resources, constraints = (
            self._instantiate(values, fresh, args, converters)
            for values, fresh in self._creation_record(constraint_map))
        for name, raw in args.items():
            if name in resource_map:
                resources[name] = converters.convert(
                    self, resource_map[name].type, raw)
            if name in constraint_map:
                constraints[name] = converters.convert(
                    self, constraint_map[name].type, raw)
        if self.parent is not None:
            for name, value in constraints.items():
                constraints[name] = self.parent.resolve_constraint(
                    self, name, value)
        self.resources = resources
        self.constraints = constraints
        # Wafe/Xt semantics: translations from resources merge onto the
        # class defaults rather than erasing them.
        base = self.class_translations()
        given = resources.get("translations")
        if given is not None:
            resources["translations"] = merge_tables(base, given)
        else:
            resources["translations"] = base
        if resources.get("destroyCallback") is None:
            resources["destroyCallback"] = CallbackList()

    def _creation_record(self, constraint_map):
        """This widget's compiled creation record, memoised per widget
        class, parent class, application name/class and name/class
        path (XtInitializeWidgetClass plus the XtCallConverter cache).

        The memo lives on the database, so every generation bump
        (``mergeResources``, ``-xrm``) drops it; a converter
        registration changes the key.
        """
        app = self.app
        names, classes = app.widget_path_quarks(self)
        key = (type(self), type(self.parent), app.app_name, app.app_class,
               names, classes, app.converters.generation)
        memo = app.database.records
        record = memo.get(key)
        if record is None:
            record = memo[key] = self._compile_record(constraint_map)
        return record

    def _compile_record(self, constraint_map):
        """Resolve every class and constraint resource from the
        database (Xt fetches a parent's constraint resources for the
        child's path like ordinary ones) or from its default.

        Returns ``((values, fresh), (constraint_values,
        constraint_fresh))``.  ``values`` hold converted values that are
        safe to share; ``fresh`` lists the ``(resource, raw)`` pairs
        whose conversion failed or gives a mutable object -- those are
        converted again for every widget, so each instance gets its own
        callback lists and a bad value raises on every creation.
        """
        converters = self.app.converters
        database = self.app.database
        search_list = self.app.resource_search_list(self)
        record = []
        for resources in (self.class_resources(), constraint_map.values()):
            values = {}
            fresh = []
            for resource in resources:
                raw = database.search(search_list, resource.name_quark,
                                      resource.class_quark)
                try:
                    value = self._resolve(resource, raw, converters)
                except TclError:  # raised again for each widget
                    value = None
                    fresh.append((resource, raw))
                else:
                    if not shareable(value):
                        value = None
                        fresh.append((resource, raw))
                values[resource.name] = value
            record.append((values, tuple(fresh)))
        return tuple(record)

    def _instantiate(self, values, fresh, args, converters):
        """One widget's copy of a record half: the shared values plus
        its own conversions of the fresh ones (explicit args aside)."""
        values = dict(values)
        for resource, raw in fresh:
            if resource.name not in args:
                values[resource.name] = self._resolve(resource, raw,
                                                      converters)
        return values

    def _resolve(self, resource, raw, converters):
        """A database string, or else the class default, converted."""
        if raw is None:
            raw = resource.default
            if raw is None and resource.type == R.R_CALLBACK:
                return CallbackList()
        return converters.convert(self, resource.type, raw)

    def initialize(self):
        """Class initialize hook (after resources are set)."""

    # ------------------------------------------------------------------
    # Resource access

    def __getitem__(self, name):
        if name in self.resources:
            return self.resources[name]
        if name in self.constraints:
            return self.constraints[name]
        raise WidgetError(
            'widget "%s" (class %s) has no resource "%s"'
            % (self.name, self.CLASS_NAME, name)
        )

    def __contains__(self, name):
        return name in self.resources or name in self.constraints

    def set_values(self, args):
        """XtSetValues: convert, store, let the class react."""
        converters = self.app.converters
        resource_map = self.class_resource_map()
        constraint_map = (self.parent.class_constraint_map()
                          if self.parent is not None else {})
        old = {}
        changed = []
        for name, raw in args.items():
            if name in resource_map:
                value = converters.convert(self, resource_map[name].type, raw)
                if name == "translations" and value is not None:
                    value = merge_tables(self.resources.get("translations"),
                                         value)
                    # A fresh table invalidates in-flight sequences
                    # (their productions no longer exist).
                    self._translation_progress = {}
                old[name] = self.resources.get(name)
                self.resources[name] = value
                changed.append(name)
            elif name in constraint_map:
                value = self.parent.resolve_constraint(
                    self, name,
                    converters.convert(self, constraint_map[name].type, raw))
                old[name] = self.constraints.get(name)
                self.constraints[name] = value
                changed.append(name)
            else:
                raise WidgetError(
                    'widget "%s" (class %s) has no resource "%s"'
                    % (self.name, self.CLASS_NAME, name)
                )
        handled = self.set_values_hook(old, changed)
        self._apply_geometry_changes(changed)
        if self.realized and self.window is not None:
            if "background" in changed:
                self.window.background_pixel = self.resources["background"]
            if not handled:
                self.redraw()
        if self.parent is not None and any(
                name in constraint_map for name in changed):
            self.parent.defer_layout()

    def set_values_hook(self, old, changed):
        """Class hook: react to changed resources.  Return true when the
        hook took care of redisplay itself (e.g. by damaging only the
        changed area) to suppress the default full redraw."""

    def _apply_geometry_changes(self, changed):
        geometry = [n for n in changed if n in ("x", "y", "width", "height",
                                                "borderWidth")]
        if geometry and self.window is not None:
            # XtMoveWidget/XtResizeWidget semantics: the change is
            # applied directly; the parent is not asked to re-layout.
            self.window.configure(
                x=self.resources["x"], y=self.resources["y"],
                width=max(1, self.resources["width"]),
                height=max(1, self.resources["height"]),
                border_width=self.resources["borderWidth"],
            )

    def get_value_string(self, name):
        """getValues: resource rendered back to a string.  Geometry
        reads run the pending layout pass first."""
        if name in ("x", "y", "width", "height"):
            self.display().flush_geometry()
        resource_map = self.class_resource_map()
        constraint_map = (self.parent.class_constraint_map()
                          if self.parent is not None else {})
        if name in resource_map:
            value = self.resources.get(name)
            if isinstance(value, CallbackList):
                return value.source
            if name == "screen":
                return self.display().name if self.display() else ""
            return self.app.converters.unconvert(
                self, resource_map[name].type, value)
        if name in constraint_map:
            value = self.constraints.get(name)
            if hasattr(value, "name"):
                return value.name  # widget reference (fromVert etc.)
            return self.app.converters.unconvert(
                self, constraint_map[name].type, value)
        raise WidgetError(
            'widget "%s" (class %s) has no resource "%s"'
            % (self.name, self.CLASS_NAME, name)
        )

    # ------------------------------------------------------------------
    # Hierarchy helpers

    def display(self):
        widget = self
        while widget is not None:
            if getattr(widget, "_display", None) is not None:
                return widget._display
            widget = widget.parent
        return self.app.default_display

    def name_path(self):
        names = []
        widget = self
        while widget is not None:
            names.append(widget.name)
            widget = widget.parent
        return list(reversed(names))

    def class_path(self):
        classes = []
        widget = self
        while widget is not None:
            classes.append(widget.CLASS_NAME)
            widget = widget.parent
        return list(reversed(classes))

    def is_sensitive(self):
        return bool(self.resources.get("sensitive", True)) and bool(
            self.resources.get("ancestorSensitive", True))

    def set_sensitive(self, value):
        self.resources["sensitive"] = value
        for child in self.children:
            child.resources["ancestorSensitive"] = value and \
                self.is_sensitive()

    # ------------------------------------------------------------------
    # Managing and realizing

    def manage_child(self, child):
        child.managed = True
        if self.realized:
            if not child.realized:
                child.realize()
            self.defer_layout()

    def unmanage_child(self, child):
        child.managed = False
        if child.window is not None:
            child.window.unmap()
        if self.realized:
            self.defer_layout()

    def defer_layout(self):
        """Mark this widget's layout stale.  The display's next flush
        point lays it out once, however many changes marked it."""
        self.display().mark_geometry(self)

    def resolve_constraint(self, child, name, value):
        """Constraint class hook: the value ``child`` stores for its
        constraint resource ``name`` as it is set, at creation or by
        setValues (where a String-to-Widget conversion happens)."""
        return value

    def layout(self):
        """Composite geometry hook; Core keeps children where they are."""

    def needed_extent(self):
        """The extent required to show all managed children."""
        max_x = max_y = 1
        for child in self.children:
            if not child.managed or getattr(child, "is_popup", False):
                continue
            border = 2 * child.resources.get("borderWidth", 0)
            max_x = max(max_x, child.resources["x"] +
                        child.resources["width"] + border)
            max_y = max(max_y, child.resources["y"] +
                        child.resources["height"] + border)
        return max_x + 4, max_y + 4

    def child_resized(self, child):
        """XtMakeGeometryRequest, simplified: a child grew; re-layout
        and grow this widget (and its ancestors) to keep it visible."""
        self.layout()
        if self.window is None:
            return
        need_w, need_h = self.needed_extent()
        grow_w = max(self.window.width, need_w)
        grow_h = max(self.window.height, need_h)
        if grow_w != self.window.width or grow_h != self.window.height:
            self.resources["width"] = grow_w
            self.resources["height"] = grow_h
            self.window.configure(width=grow_w, height=grow_h)
            self.defer_layout()  # the layout above was for the old size
            if self.parent is not None:
                self.parent.child_resized(self)

    def request_resize(self, width, height):
        """A widget asks for a new size; the request propagates up."""
        self.resources["width"] = width
        self.resources["height"] = height
        if self.window is not None:
            self.window.configure(width=max(1, width), height=max(1, height))
        if self.parent is not None:
            self.parent.child_resized(self)

    def preferred_size(self):
        """Desired (width, height); Core just reports its resources."""
        return (max(1, self.resources["width"]),
                max(1, self.resources["height"]))

    def realize(self):
        if self.realized or self.destroyed:
            return
        display = self.display()
        parent_window = self._parent_window()
        width, height = self.resources["width"], self.resources["height"]
        if width <= 0 or height <= 0:
            pw, ph = self.preferred_size()
            width = width or pw
            height = height or ph
            self.resources["width"], self.resources["height"] = width, height
        self.window = display.create_window(
            parent_window, self.resources["x"], self.resources["y"],
            max(1, width), max(1, height), self.resources["borderWidth"])
        self.window.background_pixel = self.resources["background"]
        self.window.select_input(
            xtypes.KeyPressMask | xtypes.KeyReleaseMask |
            xtypes.ButtonPressMask | xtypes.ButtonReleaseMask |
            xtypes.EnterWindowMask | xtypes.LeaveWindowMask |
            xtypes.PointerMotionMask | xtypes.ExposureMask |
            xtypes.StructureNotifyMask)
        self.app.register_window(self.window, self)
        self.realized = True
        self.realize_hook()
        self.layout()
        for child in self.children:
            if child.managed and not getattr(child, "is_popup", False):
                child.realize()
        # A second pass now that every child window exists: stacking
        # order and sizes that depend on realized children settle at
        # the next flush point.
        self.defer_layout()
        if self.managed and self.resources["mappedWhenManaged"]:
            self.window.map()

    def _parent_window(self):
        """The X window to create this widget's window under."""
        return self.parent.window if self.parent is not None else None

    def realize_hook(self):
        """Class hook after the window exists."""

    # ------------------------------------------------------------------
    # Redisplay

    def handle_expose(self, event):
        """Dispatch an Expose honouring the X count contract: events
        with count > 0 are batched; when the series ends (count == 0)
        each damage rect is repainted with the window's paint clip
        installed, so every drawing primitive the class expose hook
        issues is clipped to the damaged area."""
        window = self.window
        if window is None or not window.viewable():
            self._expose_batch = []
            return
        if event is not None:
            # A zero extent (hand-built events) means the full window,
            # as the pre-damage dispatch treated every Expose.
            w = event.width if event.width > 0 else window.width
            h = event.height if event.height > 0 else window.height
            rect = (event.x, event.y, event.x + w, event.y + h)
            if event.count > 0:
                self._expose_batch.append(rect)
                return
            self._expose_batch.append(rect)
        rects, self._expose_batch = self._expose_batch, []
        full = (0, 0, window.width, window.height)
        for rect in rects or [full]:
            x0 = max(rect[0], 0)
            y0 = max(rect[1], 0)
            x1 = min(rect[2], window.width)
            y1 = min(rect[3], window.height)
            if x0 >= x1 or y0 >= y1:
                continue
            clipped = (x0, y0, x1, y1)
            # Full-window repaints skip the clip entirely: nothing to
            # intersect, and the primitives stay on their fast path.
            window.paint_clip = None if clipped == full else clipped
            try:
                self.expose(event)
            finally:
                window.paint_clip = None

    def expose(self, event):
        """Class redisplay hook: draw the widget.  While a damage rect
        is being repainted ``self.window.paint_clip`` holds it and all
        graphics primitives clip against it automatically."""

    def redraw(self):
        self._expose_batch = []
        window = self.window
        if window is not None and window.viewable():
            # As on an Expose: a class that paints clears its own
            # background first; one that paints nothing leaves the
            # screen as it is.
            self.expose(None)
            window.display.note_paint(window)

    def update_rects(self, rects):
        """Partial redisplay: repaint the given window-relative half-open
        boxes (x0, y0, x1, y1) now, clipped and coalesced."""
        window = self.window
        if window is None or not window.viewable():
            return
        display = window.display
        region = display.new_region()
        for x0, y0, x1, y1 in rects:
            region.add_rect(x0, y0, x1, y1)
        region.intersect_rect(0, 0, window.width, window.height)
        if region.is_empty():
            return
        stats = display.render_stats
        stats["damage_rects"] += len(rects)
        stats["damage_pixels"] += region.area()
        for event in display.take_expose_series(window, region):
            self.handle_expose(event)
        display.note_paint(window)

    # ------------------------------------------------------------------
    # Callbacks

    def callback_list(self, name):
        value = self.resources.get(name)
        if not isinstance(value, CallbackList):
            value = CallbackList()
            self.resources[name] = value
        return value

    def add_callback(self, name, func, source=""):
        if name not in self.class_resource_map():
            raise WidgetError(
                'widget "%s" has no callback resource "%s"'
                % (self.name, name))
        self.callback_list(name).add(func, source)

    def call_callbacks(self, name, call_data=None):
        value = self.resources.get(name)
        if isinstance(value, CallbackList):
            value.call(self, call_data)

    # ------------------------------------------------------------------
    # Destruction (the paper's memory-management component)

    def destroy(self):
        """XtDestroyWidget.  As in phase 2 of the Xt destroy, a managed
        widget leaves its parent's layout: the parent lays out again
        without it, and siblings attached to it lose the attachment."""
        if self.destroyed:
            return
        self.call_callbacks("destroyCallback")
        self.destroyed = True  # so its children do not mark it dirty
        for child in list(self.children):
            child.destroy()
        if self.window is not None:
            self.app.unregister_window(self.window)
            self.window.destroy()
            self.window = None
        if self.parent is not None and self in self.parent.children:
            self.parent.children.remove(self)
        # Free associated resources, as Wafe's memory management does.
        self.resources.clear()
        self.constraints.clear()
        self.accelerator_bindings = []
        self.app.widget_destroyed(self)
        parent = self.parent
        if (self.managed and parent is not None and parent.realized
                and not parent.destroyed):
            parent.defer_layout()

    def __repr__(self):  # pragma: no cover
        return "<%s %r>" % (self.CLASS_NAME, self.name)


class Composite(Widget):
    """A widget that manages children (XtComposite)."""

    CLASS_NAME = "Composite"
    RESOURCES = [
        res("children", R.R_POINTER, None),
        res("numChildren", R.R_INT, 0),
        res("insertPosition", R.R_POINTER, None),
    ]


class Constraint(Composite):
    """A composite with per-child constraint resources (XtConstraint)."""

    CLASS_NAME = "Constraint"
    RESOURCES = []
