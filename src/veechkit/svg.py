"""SVG pictures of cylinder decompositions.  Display only: every coordinate
here is a decimal approximation; nothing in this module is read back."""

from __future__ import annotations

from .cylinders import torus_signature

_HEADER = ("<!-- coordinates are 12-significant-digit decimal "
           "approximations of exact field values; display only -->")

_PALETTE = ["#86b5e5", "#f2a65a", "#9ad1a2", "#d79ae0", "#e5908a", "#b8c46f"]


def _f(x):
    """12 significant digits, the only place scalars become floats."""
    return "%.12g" % float(x)


def _esc(text):
    return (str(text).replace("&", "&amp;").replace("<", "&lt;")
            .replace(">", "&gt;"))


def decomposition_group(deco, label=None):
    """One decomposition as an <g> fragment; returns (markup, width, height).

    Cylinders are drawn as their normalized-frame rectangles, stacked, with
    marked points as dots at their leaf positions.  Incomplete decompositions
    come out as a text placeholder.
    """
    pad, gap, text_h = 8.0, 10.0, 14.0
    lines = []
    y = pad
    if label is not None:
        lines.append('<text x="%g" y="%g" font-size="12" '
                     'font-family="monospace">%s</text>'
                     % (pad, y + 11, _esc(label)))
        y += text_h + 4
    if not deco.complete:
        lines.append('<text x="%g" y="%g" font-size="12" fill="#a33" '
                     'font-family="monospace">%s</text>'
                     % (pad, y + 11, _esc(deco.status)))
        return "\n".join(lines), 220.0, y + text_h + pad

    widths = [float(c.width) for c in deco.cylinders]
    heights = [float(c.height) for c in deco.cylinders]
    scale = 160.0 / max(widths + heights)
    scale = min(max(scale, 4.0), 160.0)

    classes = torus_signature(deco)
    max_w = 0.0
    for i, cyl in enumerate(deco.cylinders):
        w, h = widths[i] * scale, heights[i] * scale
        color = _PALETTE[classes.class_of_cylinder(i) % len(_PALETTE)]
        lines.append('<rect x="%g" y="%g" width="%s" height="%s" '
                     'fill="%s" stroke="#333" stroke-width="1"/>'
                     % (pad, y, _f(w), _f(h), color))
        lines.append('<text x="%s" y="%s" font-size="11" '
                     'font-family="monospace">C%d w=%s h=%s</text>'
                     % (_f(pad + w + 6), _f(y + h / 2 + 4), i,
                        _esc(cyl.width), _esc(cyl.height)))
        for mk in deco.marks:
            if mk.state == "in" and mk.cylinder == i:
                lines.append('<circle cx="%s" cy="%s" r="3" fill="#c22"/>'
                             % (_f(pad + float(mk.westd) * scale),
                                _f(y + h / 2)))
        max_w = max(max_w, w)
        y += h + gap
    return "\n".join(lines), max_w + 180.0 + 2 * pad, y + pad


def _document(width, height, body):
    """A whole <svg> document of the given size around `body`."""
    return ('<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
            'viewBox="0 0 %s %s">\n%s\n%s\n</svg>\n'
            % (_f(width), _f(height), _f(width), _f(height), _HEADER, body))


def decomposition_svg(deco, label=None):
    body, w, h = decomposition_group(deco, label=label)
    return _document(w, h, body)


def gallery_svg(entries):
    """A column of decomposition pictures, one per (label, deco) entry."""
    groups, width, y = [], 240.0, 0.0
    for label, deco in entries:
        body, w, h = decomposition_group(deco, label=label)
        groups.append('<g transform="translate(0,%s)">\n%s\n</g>' % (_f(y), body))
        width = max(width, w)
        y += h + 8.0
    return _document(width, y, "\n".join(groups))
