"""Tiny hand-rolled SVG plots: polylines, bars, histograms, scatters.

Deliberately minimal; the CLI draws its tables and curves from the rows it
has just written to CSV (a histogram draws the CSV's bins as they are), so
these are conveniences, not records.
"""

import math

from .fileio import write_atomic

W, H = 640, 420
ML, MR, MT, MB = 64, 16, 28, 46

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")


def _finite(vals):
    return [v for v in vals if v is not None and math.isfinite(v)]


class _Canvas:
    def __init__(self, title, xlabel, ylabel, xlim, ylim, logx=False, logy=False):
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{W}" height="{H}" '
            f'viewBox="0 0 {W} {H}" font-family="sans-serif" font-size="12">',
            f'<rect width="{W}" height="{H}" fill="white"/>',
            f'<text x="{W / 2}" y="16" text-anchor="middle" font-size="14">{title}</text>',
            f'<text x="{(ML + W - MR) / 2}" y="{H - 10}" text-anchor="middle">{xlabel}</text>',
            f'<text x="14" y="{(MT + H - MB) / 2}" text-anchor="middle" '
            f'transform="rotate(-90 14 {(MT + H - MB) / 2})">{ylabel}</text>',
            f'<rect x="{ML}" y="{MT}" width="{W - ML - MR}" height="{H - MT - MB}" '
            f'fill="none" stroke="#888"/>',
        ]
        self.logx, self.logy = logx, logy
        self.x0, self.x1 = (math.log10(xlim[0]), math.log10(xlim[1])) if logx else xlim
        self.y0, self.y1 = (math.log10(ylim[0]), math.log10(ylim[1])) if logy else ylim
        if self.x1 == self.x0:
            self.x1 = self.x0 + 1.0
        if self.y1 == self.y0:
            self.y1 = self.y0 + 1.0

    def px(self, x):
        if self.logx:
            x = math.log10(x)
        return ML + (x - self.x0) / (self.x1 - self.x0) * (W - ML - MR)

    def py(self, y):
        if self.logy:
            y = math.log10(y)
        return H - MB - (y - self.y0) / (self.y1 - self.y0) * (H - MT - MB)

    def ticks(self, n=5):
        for i in range(n + 1):
            fx = self.x0 + (self.x1 - self.x0) * i / n
            fy = self.y0 + (self.y1 - self.y0) * i / n
            vx = 10**fx if self.logx else fx
            vy = 10**fy if self.logy else fy
            px, py = self.px(vx), self.py(vy)
            self.parts.append(f'<text x="{px:.1f}" y="{H - MB + 16}" '
                              f'text-anchor="middle">{vx:.4g}</text>')
            self.parts.append(f'<text x="{ML - 6}" y="{py + 4:.1f}" '
                              f'text-anchor="end">{vy:.4g}</text>')

    def polyline(self, xs, ys, color, label=None, index=0):
        pts = " ".join(f"{self.px(x):.1f},{self.py(y):.1f}" for x, y in zip(xs, ys)
                       if math.isfinite(y))
        self.parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" '
                          f'stroke-width="1.5"/>')
        if label:
            ly = MT + 14 + 14 * index
            self.parts.append(f'<line x1="{W - MR - 120}" y1="{ly - 4}" x2="{W - MR - 100}" '
                              f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
            self.parts.append(f'<text x="{W - MR - 95}" y="{ly}">{label}</text>')

    def dot(self, x, y, color, r=2.2):
        self.parts.append(f'<circle cx="{self.px(x):.1f}" cy="{self.py(y):.1f}" '
                          f'r="{r}" fill="{color}"/>')

    def save(self, path):
        self.parts.append("</svg>")
        write_atomic(path, "\n".join(self.parts))


def _limits(vals, pad=0.05, log=False):
    vals = _finite(vals)
    if not vals:
        return (0.1, 1.0) if log else (0.0, 1.0)
    lo, hi = min(vals), max(vals)
    if log:
        lo = max(lo, 1e-12)
        hi = max(hi, lo * 1.0001)
        return lo / 1.3, hi * 1.3
    span = (hi - lo) or abs(hi) or 1.0
    return lo - pad * span, hi + pad * span


def line_plot(path, xs, series, title="", xlabel="", ylabel="", logx=False, logy=False):
    """series: mapping label -> list of y values aligned with xs."""
    ys_all = [y for ys in series.values() for y in ys]
    cv = _Canvas(title, xlabel, ylabel, _limits(xs, log=logx), _limits(ys_all, log=logy),
                 logx=logx, logy=logy)
    cv.ticks()
    for i, (label, ys) in enumerate(series.items()):
        color = PALETTE[i % len(PALETTE)]
        cv.polyline(xs, ys, color, label=label, index=i)
        for x, y in zip(xs, ys):
            if math.isfinite(y):
                cv.dot(x, y, color)
    cv.save(path)


def bar_chart(path, labels, series, title="", ylabel=""):
    """Grouped bars: labels along x, series maps group name -> values."""
    groups = list(series)
    ys_all = [v for vals in series.values() for v in vals] + [0.0]
    cv = _Canvas(title, "", ylabel, (0.0, float(len(labels))), _limits(ys_all))
    n_ticks = 5
    for i in range(n_ticks + 1):
        vy = cv.y0 + (cv.y1 - cv.y0) * i / n_ticks
        cv.parts.append(f'<text x="{ML - 6}" y="{cv.py(vy) + 4:.1f}" '
                        f'text-anchor="end">{vy:.4g}</text>')
    slot = 1.0
    bw = slot * 0.8 / max(len(groups), 1)
    y_base = cv.py(max(cv.y0, 0.0))
    for gi, name in enumerate(groups):
        color = PALETTE[gi % len(PALETTE)]
        for li, v in enumerate(series[name]):
            x_left = cv.px(li + 0.1 + gi * bw)
            x_right = cv.px(li + 0.1 + (gi + 1) * bw)
            y_top = cv.py(v)
            cv.parts.append(f'<rect x="{x_left:.1f}" y="{min(y_top, y_base):.1f}" '
                            f'width="{x_right - x_left:.1f}" '
                            f'height="{abs(y_base - y_top):.1f}" fill="{color}"/>')
        ly = MT + 14 + 14 * gi
        cv.parts.append(f'<rect x="{W - MR - 120}" y="{ly - 10}" width="12" height="8" '
                        f'fill="{color}"/>')
        cv.parts.append(f'<text x="{W - MR - 104}" y="{ly}">{name}</text>')
    for li, lab in enumerate(labels):
        cv.parts.append(f'<text x="{cv.px(li + 0.5):.1f}" y="{H - MB + 16}" '
                        f'text-anchor="middle">{lab}</text>')
    cv.save(path)


def histogram(path, edges, counts, title="", xlabel="", vlines=()):
    """Bars of counts[i] over [edges[i], edges[i + 1]], drawn as given."""
    lo, hi = edges[0], edges[-1]
    cv = _Canvas(title, xlabel, "count", (lo, hi), (0.0, max(counts) * 1.05 or 1.0))
    cv.ticks()
    for left, right, c in zip(edges, edges[1:], counts):
        x_left, x_right, y_top = cv.px(left), cv.px(right), cv.py(c)
        cv.parts.append(f'<rect x="{x_left:.1f}" y="{y_top:.1f}" '
                        f'width="{x_right - x_left:.1f}" '
                        f'height="{cv.py(0) - y_top:.1f}" fill="{PALETTE[0]}"/>')
    for x, label in vlines:
        if lo <= x <= hi:
            cv.parts.append(f'<line x1="{cv.px(x):.1f}" y1="{MT}" x2="{cv.px(x):.1f}" '
                            f'y2="{H - MB}" stroke="#d62728" stroke-dasharray="4 3"/>')
            cv.parts.append(f'<text x="{cv.px(x) + 3:.1f}" y="{MT + 12}" '
                            f'fill="#d62728">{label}</text>')
    cv.save(path)


def scatter_with_lines(path, points, lines, title="", xlabel="x1", ylabel="x2"):
    """points: iterable of (x, y, class_index); lines: label -> (w1, w2, b)
    drawn as the zero set w1 x + w2 y + b = 0 clipped to the data box."""
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    cv = _Canvas(title, xlabel, ylabel, _limits(xs), _limits(ys))
    cv.ticks()
    for x, y, cls in points:
        cv.dot(x, y, PALETTE[cls % len(PALETTE)], r=1.6)
    for i, (label, (w1, w2, b)) in enumerate(lines.items()):
        color = PALETTE[(i + 2) % len(PALETTE)]
        seg = _clip_line(w1, w2, b, cv.x0, cv.x1, cv.y0, cv.y1)
        if seg:
            (xa, ya), (xb, yb) = seg
            cv.parts.append(f'<line x1="{cv.px(xa):.1f}" y1="{cv.py(ya):.1f}" '
                            f'x2="{cv.px(xb):.1f}" y2="{cv.py(yb):.1f}" '
                            f'stroke="{color}" stroke-width="2"/>')
        ly = MT + 14 + 14 * i
        cv.parts.append(f'<line x1="{W - MR - 150}" y1="{ly - 4}" x2="{W - MR - 130}" '
                        f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        cv.parts.append(f'<text x="{W - MR - 125}" y="{ly}">{label}</text>')
    cv.save(path)


def _clip_line(w1, w2, b, x0, x1, y0, y1):
    # intersect w1 x + w2 y + b = 0 with the box edges
    pts = []
    if abs(w2) > 1e-12:
        for x in (x0, x1):
            y = -(w1 * x + b) / w2
            if y0 <= y <= y1:
                pts.append((x, y))
    if abs(w1) > 1e-12:
        for y in (y0, y1):
            x = -(w2 * y + b) / w1
            if x0 <= x <= x1:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if all(abs(p[0] - q[0]) + abs(p[1] - q[1]) > 1e-9 for q in uniq):
            uniq.append(p)
    return (uniq[0], uniq[1]) if len(uniq) >= 2 else None
