"""Check reports and deterministic artifact writers: JSON, CSV, SVG
charts, gnuplot scripts.  Only the npz pair ``save_artifact`` and
``load_artifact`` imports numpy, so the stages that write text alone run
without it.

Numeric artifacts must be byte-identical across reruns with the same
config and seed, so everything here is rendered from the data alone:
sorted keys, repr floats, no timestamps, no library-injected metadata.
Wall-clock information goes to the separate run_meta.json only.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .errors import DependencyError

# The interpreter's built-in SHA-256: ``hashlib`` loads ``_hashlib``, which
# maps OpenSSL's libcrypto (about 3.6 MB of RSS) for this one digest of
# the config.  CPython's random.py takes _sha512 for the same reason.
try:
    from _sha2 import sha256                    # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256              # CPython 3.11
    except ImportError:
        from hashlib import sha256


@dataclass(frozen=True)
class Check:
    """One stated hypothesis: its verdict and the named numbers behind it,
    e.g. ``{"slack": s}`` or ``{"measured": m, "threshold": t}``."""

    name: str
    passed: bool
    numbers: dict
    detail: str = ""

    def __getitem__(self, key):
        return self.numbers[key]

    def as_dict(self):
        return {"name": self.name, "passed": bool(self.passed),
                **{k: float(v) for k, v in self.numbers.items()},
                "detail": self.detail}


@dataclass(frozen=True)
class Report:
    """An ordered tuple of checks; passes when every check does."""

    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def failing(self):
        return [c for c in self.checks if not c.passed]

    def __getitem__(self, name):
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)

    def as_dict(self):
        return {"passed": self.passed,
                "checks": [c.as_dict() for c in self.checks]}


def config_hash(resolved: dict) -> str:
    """Stable hash of the numeric-relevant configuration."""
    blob = json.dumps(resolved, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()[:16]


# mkstemp creates its file 0600; artifacts get the mode a plain open gives.
_UMASK = os.umask(0)
os.umask(_UMASK)


def _replace_atomically(path, write, mode):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, mode) as fh:
            os.fchmod(fd, 0o666 & ~_UMASK)
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path, text):
    _replace_atomically(path, lambda fh: fh.write(text), "w")


def save_artifact(stem, meta, arrays):
    """Write ``stem.npz``, replaced atomically: ``arrays`` plus a ``meta``
    entry holding ``meta`` as JSON, config hash included.

    The members are what ``np.savez_compressed`` writes, deflated at zlib
    level 1 rather than 6: the slice radii take about half the time to
    write, in no more bytes.  Each member keeps ``ZipInfo``'s fixed 1980
    timestamp, so a rerun writes the same bytes."""
    import zipfile

    import numpy as np
    from numpy.lib.format import write_array
    members = {**arrays, "meta": np.array(json.dumps(meta, sort_keys=True))}

    def write(fh):
        with zipfile.ZipFile(fh, "w", zipfile.ZIP_DEFLATED,
                             compresslevel=1) as z:
            for name, a in members.items():
                with z.open(name + ".npy", "w", force_zip64=True) as f:
                    write_array(f, np.asanyarray(a), allow_pickle=False)

    _replace_atomically(Path(stem).with_suffix(".npz"), write, "wb")


def load_artifact(stem, shapes, producer, config_hash=None):
    """Read the ``meta`` and the arrays of ``stem.npz``: ``shapes(meta)``
    maps each array's name to its required shape.

    Raises DependencyError, naming the ``producer`` stage, if the file is
    missing or has no ``meta`` entry, if ``config_hash`` is given and
    ``meta`` carries another, or if an array is missing, has another shape
    or has an entry that is not finite.
    """
    import numpy as np
    path = Path(stem).with_suffix(".npz")
    if not path.exists():
        raise DependencyError(str(path), producer)
    with np.load(path) as z:
        def entry(k):
            if k not in z.files:
                raise DependencyError(str(path), producer, (z.files, repr(k)),
                                      "entries", "lack")
            return z[k]

        # .item(), not str(), which formats through numpy's array printing
        # and raised horizon's peak RSS by 0.3 MB at 32x64.
        meta = json.loads(entry("meta").item())
        if config_hash is not None and meta["config_hash"] != config_hash:
            raise DependencyError(str(path), producer,
                                  (meta["config_hash"], config_hash))
        arrays = {}
        for k, shape in shapes(meta).items():
            a = arrays[k] = entry(k)
            if a.shape != shape:
                raise DependencyError(str(path), producer, (a.shape, shape),
                                      f"{k} shape")
            if not np.isfinite(a).all():
                raise DependencyError(str(path), producer, (k, "finite"),
                                      "array", "is not")
        return meta, arrays


def write_json(path, payload):
    _atomic_write(path, json.dumps(payload, sort_keys=True, indent=1) + "\n")


def write_csv(path, header, rows, stamp=""):
    lines = [f"# config_hash={stamp}"] if stamp else []
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(repr(float(v)) if isinstance(v, float)
                              else str(v) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")


# -- minimal SVG charts -----------------------------------------------------

_W, _H = 640, 420
_ML, _MR, _MT, _MB = 70, 20, 34, 52


def _ticks(lo, hi, n=5):
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / n
    mag = 10.0 ** int(f"{raw:e}".split("e")[1])
    step = min((s for s in (mag, 2 * mag, 5 * mag, 10 * mag) if s >= raw),
               default=mag)
    start = step * round(lo / step)
    ticks = []
    t = start
    while t <= hi + 0.5 * step:
        if t >= lo - 0.5 * step:
            ticks.append(t)
        t += step
    return ticks


class _Mapper:
    def __init__(self, xlo, xhi, ylo, yhi):
        pad = 0.05 * (yhi - ylo) if yhi > ylo else 1.0
        self.xlo, self.xhi = xlo, xhi if xhi > xlo else xlo + 1.0
        self.ylo, self.yhi = ylo - pad, yhi + pad

    def x(self, v):
        return _ML + (_W - _ML - _MR) * (v - self.xlo) / (self.xhi - self.xlo)

    def y(self, v):
        return _H - _MB - (_H - _MT - _MB) * (v - self.ylo) \
            / (self.yhi - self.ylo)


def _frame(m, title, xlabel, ylabel):
    parts = [f'<rect x="{_ML}" y="{_MT}" width="{_W-_ML-_MR}" '
             f'height="{_H-_MT-_MB}" fill="none" stroke="#333"/>']
    for t in _ticks(m.xlo, m.xhi):
        px = m.x(t)
        parts.append(f'<line x1="{px:.1f}" y1="{_H-_MB}" x2="{px:.1f}" '
                     f'y2="{_H-_MB+5}" stroke="#333"/>')
        parts.append(f'<text x="{px:.1f}" y="{_H-_MB+18}" font-size="11" '
                     f'text-anchor="middle">{t:.4g}</text>')
    for t in _ticks(m.ylo, m.yhi):
        py = m.y(t)
        parts.append(f'<line x1="{_ML-5}" y1="{py:.1f}" x2="{_ML}" '
                     f'y2="{py:.1f}" stroke="#333"/>')
        parts.append(f'<text x="{_ML-8}" y="{py+4:.1f}" font-size="11" '
                     f'text-anchor="end">{t:.4g}</text>')
    parts.append(f'<text x="{(_ML+_W-_MR)/2}" y="{_H-14}" font-size="12" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{(_MT+_H-_MB)/2}" font-size="12" '
                 f'text-anchor="middle" transform="rotate(-90 16 '
                 f'{(_MT+_H-_MB)/2})">{ylabel}</text>')
    parts.append(f'<text x="{_W/2}" y="20" font-size="13" '
                 f'text-anchor="middle">{title}</text>')
    return parts


def svg_line_chart(path, title, xlabel, ylabel, series, bands=(),
                   stamp=""):
    """Polyline chart; series: dicts with x, y, label, color."""
    xs = [v for s in series for v in s["x"]]
    ys = [v for s in series for v in s["y"]]
    for b in bands:
        xs += list(b["x"])
        ys += list(b["ylo"]) + list(b["yhi"])
    m = _Mapper(min(xs), max(xs), min(ys), max(ys))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
             f'height="{_H}" viewBox="0 0 {_W} {_H}">',
             f'<!-- config_hash={stamp} -->',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    for b in bands:
        pts = [f"{m.x(x):.1f},{m.y(y):.1f}" for x, y in zip(b["x"], b["yhi"])]
        pts += [f"{m.x(x):.1f},{m.y(y):.1f}"
                for x, y in zip(reversed(b["x"]), reversed(b["ylo"]))]
        parts.append(f'<polygon points="{" ".join(pts)}" '
                     f'fill="{b.get("color", "#cce")}" opacity="0.5"/>')
    parts += _frame(m, title, xlabel, ylabel)
    for i, s in enumerate(series):
        pts = " ".join(f"{m.x(x):.1f},{m.y(y):.1f}"
                       for x, y in zip(s["x"], s["y"]))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{s.get("color", "#206")}" stroke-width="1.5"/>')
        parts.append(f'<text x="{_W-_MR-6}" y="{_MT+16+14*i}" font-size="11" '
                     f'text-anchor="end" fill="{s.get("color", "#206")}">'
                     f'{s["label"]}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


def svg_class_map(path, title, xlabel, ylabel, xs, ys, labels, palette,
                  stamp=""):
    """Category map over a rectangular lattice (cell centers xs x ys)."""
    m = _Mapper(min(xs), max(xs), min(ys), max(ys))
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" '
             f'height="{_H}" viewBox="0 0 {_W} {_H}">',
             f'<!-- config_hash={stamp} -->',
             f'<rect width="{_W}" height="{_H}" fill="white"/>']
    wx = (_W - _ML - _MR) / max(len(xs), 1)
    wy = (_H - _MT - _MB) / max(len(ys), 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            color = palette.get(labels[j][i], "#999")
            parts.append(f'<rect x="{m.x(x)-wx/2:.1f}" '
                         f'y="{m.y(y)-wy/2:.1f}" width="{wx:.1f}" '
                         f'height="{wy:.1f}" fill="{color}"/>')
    parts += _frame(m, title, xlabel, ylabel)
    for i, (name, color) in enumerate(sorted(palette.items())):
        parts.append(f'<rect x="{_ML+8}" y="{_MT+8+16*i}" width="10" '
                     f'height="10" fill="{color}"/>')
        parts.append(f'<text x="{_ML+22}" y="{_MT+17+16*i}" '
                     f'font-size="11">{name}</text>')
    parts.append("</svg>")
    _atomic_write(path, "\n".join(parts) + "\n")


def gnuplot_script(path, datfile, title, xlabel, ylabel, columns,
                   stamp=""):
    """Companion gnuplot script plotting named columns of a .dat file."""
    plots = ", ".join(
        f"'{datfile}' using 1:{i + 2} with lines title '{name}'"
        for i, name in enumerate(columns))
    text = "\n".join([
        f"# config_hash={stamp}",
        "set terminal svg size 640,420",
        f"set output '{Path(path).stem}.svg'",
        f"set title '{title}'",
        f"set xlabel '{xlabel}'",
        f"set ylabel '{ylabel}'",
        "set key outside",
        f"plot {plots}",
        "",
    ])
    _atomic_write(path, text)


def write_dat(path, columns_header, rows, stamp=""):
    lines = [f"# config_hash={stamp}"] if stamp else []
    lines.append("# " + " ".join(columns_header))
    for row in rows:
        lines.append(" ".join(repr(float(v)) for v in row))
    _atomic_write(path, "\n".join(lines) + "\n")
