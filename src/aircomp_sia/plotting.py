"""Minimal SVG renderer for NMSE-versus-SNR curves. No plotting dependency."""

from __future__ import annotations

import math

PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH = 720
HEIGHT = 480
MARGIN_LEFT = 80
MARGIN_RIGHT = 160
MARGIN_TOP = 40
MARGIN_BOTTOM = 60


def _series_from_rows(rows):
    series = {}
    for row in rows:
        try:
            scheme = row["scheme"]
            snr = float(row["snr_db"])
            nmse = float(row["nmse_mean"])
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed row: {row!r}") from exc
        if not math.isfinite(nmse) or nmse <= 0:
            raise ValueError(f"nmse_mean must be positive and finite, got {nmse!r}")
        if not math.isfinite(snr):
            raise ValueError(f"snr_db must be finite, got {snr!r}")
        series.setdefault(scheme, []).append((snr, nmse))
    if not series:
        raise ValueError("no data rows")
    for points in series.values():
        points.sort(key=lambda p: p[0])
    return series


def render_nmse_svg(rows):
    """Render one log10-scaled polyline per scheme; returns the SVG text."""
    series = _series_from_rows(rows)
    xs = [p[0] for pts in series.values() for p in pts]
    ys = [math.log10(p[1]) for pts in series.values() for p in pts]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = math.floor(min(ys)), math.ceil(max(ys))
    if x_hi == x_lo:
        x_hi = x_lo + 1.0
    if y_hi == y_lo:
        y_hi = y_lo + 1

    plot_w = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
    plot_h = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM

    def px(x):
        return MARGIN_LEFT + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(logy):
        return MARGIN_TOP + (y_hi - logy) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP + plot_h}" x2="{MARGIN_LEFT + plot_w}" '
        f'y2="{MARGIN_TOP + plot_h}" stroke="black"/>',
        f'<line x1="{MARGIN_LEFT}" y1="{MARGIN_TOP}" x2="{MARGIN_LEFT}" '
        f'y2="{MARGIN_TOP + plot_h}" stroke="black"/>',
    ]
    for decade in range(y_lo, y_hi + 1):
        y = py(decade)
        parts.append(
            f'<line x1="{MARGIN_LEFT - 5}" y1="{y:.1f}" x2="{MARGIN_LEFT + plot_w}" '
            f'y2="{y:.1f}" stroke="#dddddd"/>')
        parts.append(
            f'<text x="{MARGIN_LEFT - 10}" y="{y + 4:.1f}" text-anchor="end" '
            f'font-size="12" font-family="sans-serif">1e{decade}</text>')
    tick_count = 5
    for t in range(tick_count):
        x_val = x_lo + t * (x_hi - x_lo) / (tick_count - 1)
        x = px(x_val)
        parts.append(
            f'<line x1="{x:.1f}" y1="{MARGIN_TOP + plot_h}" x2="{x:.1f}" '
            f'y2="{MARGIN_TOP + plot_h + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{x:.1f}" y="{MARGIN_TOP + plot_h + 20}" text-anchor="middle" '
            f'font-size="12" font-family="sans-serif">{x_val:g}</text>')
    parts.append(
        f'<text x="{MARGIN_LEFT + plot_w / 2:.1f}" y="{HEIGHT - 15}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif">SNR (dB)</text>')
    parts.append(
        f'<text x="20" y="{MARGIN_TOP + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-size="13" font-family="sans-serif" '
        f'transform="rotate(-90 20 {MARGIN_TOP + plot_h / 2:.1f})">NMSE</text>')

    for idx, (scheme, points) in enumerate(sorted(series.items())):
        colour = PALETTE[idx % len(PALETTE)]
        coords = " ".join(f"{px(x):.2f},{py(math.log10(y)):.2f}" for x, y in points)
        parts.append(
            f'<polyline fill="none" stroke="{colour}" stroke-width="2" points="{coords}"/>')
        legend_y = MARGIN_TOP + 20 + idx * 20
        label = scheme.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(
            f'<rect x="{MARGIN_LEFT + plot_w + 15}" y="{legend_y - 9}" width="12" height="12" '
            f'fill="{colour}"/>')
        parts.append(
            f'<text x="{MARGIN_LEFT + plot_w + 32}" y="{legend_y + 2}" font-size="12" '
            f'font-family="sans-serif">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
