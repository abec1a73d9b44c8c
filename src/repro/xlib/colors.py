"""The named color database and pixel allocation.

Models the server side of ``XAllocNamedColor``/``XParseColor``: color
names come from a built-in ``rgb.txt`` subset (every name the paper and
the demo applications use, plus the common X11 set), and ``#rgb``,
``#rrggbb`` and ``#rrrrggggbbbb`` hex forms parse like ``XParseColor``.
Pixels are 24-bit ``0xRRGGBB`` TrueColor values, so converting a pixel
back to components is lossless -- handy for framebuffer assertions.
"""

from repro.tcl.errors import TclError

# A representative slice of X11R5's rgb.txt.  Names are matched
# case-insensitively and with spaces ignored, like the real database.
_RGB_TXT = {
    "white": (255, 255, 255),
    "black": (0, 0, 0),
    "red": (255, 0, 0),
    "green": (0, 255, 0),
    "blue": (0, 0, 255),
    "yellow": (255, 255, 0),
    "cyan": (0, 255, 255),
    "magenta": (255, 0, 255),
    "gray": (190, 190, 190),
    "grey": (190, 190, 190),
    "darkgray": (169, 169, 169),
    "darkgrey": (169, 169, 169),
    "lightgray": (211, 211, 211),
    "lightgrey": (211, 211, 211),
    "dimgray": (105, 105, 105),
    "gray50": (127, 127, 127),
    "gray75": (191, 191, 191),
    "gray90": (229, 229, 229),
    "navy": (0, 0, 128),
    "navyblue": (0, 0, 128),
    "cornflowerblue": (100, 149, 237),
    "darkslateblue": (72, 61, 139),
    "slateblue": (106, 90, 205),
    "mediumblue": (0, 0, 205),
    "royalblue": (65, 105, 225),
    "dodgerblue": (30, 144, 255),
    "deepskyblue": (0, 191, 255),
    "skyblue": (135, 206, 235),
    "lightskyblue": (135, 206, 250),
    "steelblue": (70, 130, 180),
    "lightsteelblue": (176, 196, 222),
    "lightblue": (173, 216, 230),
    "powderblue": (176, 224, 230),
    "paleturquoise": (175, 238, 238),
    "turquoise": (64, 224, 208),
    "lightcyan": (224, 255, 255),
    "cadetblue": (95, 158, 160),
    "aquamarine": (127, 255, 212),
    "darkgreen": (0, 100, 0),
    "darkolivegreen": (85, 107, 47),
    "darkseagreen": (143, 188, 143),
    "seagreen": (46, 139, 87),
    "mediumseagreen": (60, 179, 113),
    "lightseagreen": (32, 178, 170),
    "palegreen": (152, 251, 152),
    "springgreen": (0, 255, 127),
    "lawngreen": (124, 252, 0),
    "chartreuse": (127, 255, 0),
    "greenyellow": (173, 255, 47),
    "limegreen": (50, 205, 50),
    "yellowgreen": (154, 205, 50),
    "forestgreen": (34, 139, 34),
    "olivedrab": (107, 142, 35),
    "darkkhaki": (189, 183, 107),
    "khaki": (240, 230, 140),
    "palegoldenrod": (238, 232, 170),
    "lightgoldenrodyellow": (250, 250, 210),
    "lightyellow": (255, 255, 224),
    "gold": (255, 215, 0),
    "lightgoldenrod": (238, 221, 130),
    "goldenrod": (218, 165, 32),
    "darkgoldenrod": (184, 134, 11),
    "rosybrown": (188, 143, 143),
    "indianred": (205, 92, 92),
    "saddlebrown": (139, 69, 19),
    "sienna": (160, 82, 45),
    "peru": (205, 133, 63),
    "burlywood": (222, 184, 135),
    "beige": (245, 245, 220),
    "wheat": (245, 222, 179),
    "sandybrown": (244, 164, 96),
    "tan": (210, 180, 140),
    "chocolate": (210, 105, 30),
    "firebrick": (178, 34, 34),
    "brown": (165, 42, 42),
    "darksalmon": (233, 150, 122),
    "salmon": (250, 128, 114),
    "lightsalmon": (255, 160, 122),
    "orange": (255, 165, 0),
    "darkorange": (255, 140, 0),
    "coral": (255, 127, 80),
    "lightcoral": (240, 128, 128),
    "tomato": (255, 99, 71),
    "orangered": (255, 69, 0),
    "hotpink": (255, 105, 180),
    "deeppink": (255, 20, 147),
    "pink": (255, 192, 203),
    "lightpink": (255, 182, 193),
    "palevioletred": (219, 112, 147),
    "maroon": (176, 48, 96),
    "mediumvioletred": (199, 21, 133),
    "violetred": (208, 32, 144),
    "violet": (238, 130, 238),
    "plum": (221, 160, 221),
    "orchid": (218, 112, 214),
    "mediumorchid": (186, 85, 211),
    "darkorchid": (153, 50, 204),
    "darkviolet": (148, 0, 211),
    "blueviolet": (138, 43, 226),
    "purple": (160, 32, 240),
    "mediumpurple": (147, 112, 219),
    "thistle": (216, 191, 216),
    "snow": (255, 250, 250),
    "ghostwhite": (248, 248, 255),
    "whitesmoke": (245, 245, 245),
    "gainsboro": (220, 220, 220),
    "floralwhite": (255, 250, 240),
    "oldlace": (253, 245, 230),
    "linen": (250, 240, 230),
    "antiquewhite": (250, 235, 215),
    "papayawhip": (255, 239, 213),
    "blanchedalmond": (255, 235, 205),
    "bisque": (255, 228, 196),
    "peachpuff": (255, 218, 185),
    "navajowhite": (255, 222, 173),
    "moccasin": (255, 228, 181),
    "cornsilk": (255, 248, 220),
    "ivory": (255, 255, 240),
    "lemonchiffon": (255, 250, 205),
    "seashell": (255, 245, 238),
    "honeydew": (240, 255, 240),
    "mintcream": (245, 255, 250),
    "azure": (240, 255, 255),
    "aliceblue": (240, 248, 255),
    "lavender": (230, 230, 250),
    "lavenderblush": (255, 240, 245),
    "mistyrose": (255, 228, 225),
    "slategray": (112, 128, 144),
    "lightslategray": (119, 136, 153),
    "midnightblue": (25, 25, 112),
}


class ColorError(TclError):
    """Raised for unparseable color specifications."""


def parse_color(spec):
    """Parse a color spec into an (r, g, b) triple of 0..255.

    Accepts rgb.txt names (case/space insensitive) and ``#`` hex forms
    with 1, 2 or 4 digits per component.
    """
    spec = spec.strip()
    if not spec:
        raise ColorError('cannot parse color ""')
    if spec.startswith("#"):
        digits = spec[1:]
        if len(digits) in (3, 6, 12) and all(
            c in "0123456789abcdefABCDEF" for c in digits
        ):
            per = len(digits) // 3
            out = []
            for i in range(3):
                chunk = digits[i * per : (i + 1) * per]
                value = int(chunk, 16)
                # Scale to 8 bits.
                if per == 1:
                    value *= 17
                elif per == 4:
                    value >>= 8
                out.append(value)
            return tuple(out)
        raise ColorError('cannot parse color "%s"' % spec)
    key = spec.replace(" ", "").lower()
    if key in _RGB_TXT:
        return _RGB_TXT[key]
    raise ColorError('cannot parse color "%s"' % spec)


def alloc_color(spec):
    """Allocate a pixel (0xRRGGBB) for a color spec."""
    r, g, b = parse_color(spec)
    return (r << 16) | (g << 8) | b


def pixel_to_rgb(pixel):
    """Split a pixel back into (r, g, b)."""
    return ((pixel >> 16) & 0xFF, (pixel >> 8) & 0xFF, pixel & 0xFF)


BLACK_PIXEL = 0x000000
WHITE_PIXEL = 0xFFFFFF
