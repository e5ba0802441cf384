"""Minimal deterministic SVG scatter/line plots (no plotting dependency)."""

import numpy as np

_W = 640
_H = 640
_PAD = 48

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _bounds(arrays):
    xs = np.concatenate([np.asarray(a, float)[:, 0] for a in arrays])
    ys = np.concatenate([np.asarray(a, float)[:, 1] for a in arrays])
    x0, x1 = xs.min(), xs.max()
    y0, y1 = ys.min(), ys.max()
    dx = (x1 - x0) or 1.0
    dy = (y1 - y0) or 1.0
    return x0 - 0.05 * dx, x1 + 0.05 * dx, y0 - 0.05 * dy, y1 + 0.05 * dy


def _mapper(x0, x1, y0, y1):
    sx = (_W - 2 * _PAD) / (x1 - x0)
    sy = (_H - 2 * _PAD) / (y1 - y0)

    def to_px(x, y):
        return (_PAD + (x - x0) * sx, _H - _PAD - (y - y0) * sy)

    return to_px


def _header(title):
    return ['<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d">'
            % (_W, _H),
            '<rect width="100%" height="100%" fill="white"/>',
            '<text x="%d" y="24" font-family="sans-serif" '
            'font-size="14">%s</text>' % (_PAD, title)]


def scatter(path, groups, title):
    """groups: list of (label, (n, d >= 2) array); plots columns 0 and 1."""
    parts = _header(title)
    to_px = _mapper(*_bounds([pts for _, pts in groups]))
    for gi, (label, pts) in enumerate(groups):
        color = PALETTE[gi % len(PALETTE)]
        parts.append('<text x="%d" y="%d" font-family="sans-serif" '
                     'font-size="12" fill="%s">%s</text>'
                     % (_PAD + 120 * gi, 40, color, label))
        for x, y in np.asarray(pts, float)[:, :2]:
            px, py = to_px(x, y)
            parts.append('<circle cx="%.2f" cy="%.2f" r="2" fill="%s" '
                         'fill-opacity="0.6"/>' % (px, py, color))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def lines(path, x, series, title):
    """series: list of (label, y-array); shared x axis."""
    x = np.asarray(x, float)
    arrays = [np.stack([x, np.asarray(y, float)], axis=1) for _, y in series]
    parts = _header(title)
    to_px = _mapper(*_bounds(arrays))
    for gi, (label, y) in enumerate(series):
        color = PALETTE[gi % len(PALETTE)]
        coords = " ".join("%.2f,%.2f" % to_px(xi, yi)
                          for xi, yi in zip(x, np.asarray(y, float)))
        parts.append('<polyline points="%s" fill="none" stroke="%s" '
                     'stroke-width="1.5"/>' % (coords, color))
        parts.append('<text x="%d" y="%d" font-family="sans-serif" '
                     'font-size="12" fill="%s">%s</text>'
                     % (_PAD + 140 * gi, 40, color, label))
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
