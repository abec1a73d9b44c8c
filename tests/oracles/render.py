"""The full repaint: the rendering oracle for damage-driven redisplay.

Blank the screen to the root background, damage the whole root
subtree, flush and dispatch: every viewable widget repaints all of
itself in stacking order.  Whatever the damage path has put on screen
at a checkpoint must be byte-identical to that.
"""


def full_repaint(app):
    """The framebuffer a full repaint of ``app``'s default display gives.

    The display's own framebuffer is restored afterwards, so a damage
    path under test keeps evolving from its own pixels rather than
    from the oracle's."""
    display = app.default_display
    framebuffer = display.screen.framebuffer
    saved = framebuffer.copy()
    framebuffer[:] = display.root.background_pixel
    display.damage_subtree(display.root)
    app.process_pending()
    repainted = framebuffer.copy()
    framebuffer[:] = saved
    return repainted
