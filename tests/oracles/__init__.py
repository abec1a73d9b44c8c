"""Reference implementations the production code is tested against.

Each layer of ``src/repro`` has exactly one production path.  The
simpler, slower specifications those paths replaced live here, where
only tests and benchmarks construct them:

* :mod:`tests.oracles.region` -- the rect-list region
  (``NaiveRegion``) behind the band :class:`repro.xlib.region.Region`;
* :mod:`tests.oracles.xrm` -- the linear-scan resource matcher
  (``query_naive``) behind the Xrm quark tree;
* :mod:`tests.oracles.eventcore` -- the raw-``select`` readiness pass
  (``SelectEventCore``) behind the ``selectors`` event core;
* :mod:`tests.oracles.render` -- the full repaint every damage-driven
  checkpoint must match byte for byte.

The Tcl tree walker stays in ``repro.tcl.interp`` because it is the
uncompiled evaluation path itself: ``Interp(compile=False)``.
"""
