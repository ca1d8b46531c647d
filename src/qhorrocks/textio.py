"""Line-oriented text formats for modules, bundles and invariant triples.

Every file opens with a field header, then a kind marker:

    field p=32003            (or: field rationals)
    module | bundle gamma | bundle monad | triple

Module blocks list the piece dimensions and the four operator matrices,
rows separated by ';' and entries by ','::

    degrees -1..0
    dim -1: 2
    x0 -1: 1,0;0,1

Bundle files list the twists of each split bundle as (a,b) pairs and the
matrices as one bracketed row of polynomial entries per line::

    A: (-1,0) (-1,0)
    B: (0,0)
    g:
    [s, t]

Triple files embed a module block and then the subspace blocks, vectors in
the canonical coker-model coordinates of the companion modules::

    W 0: 1,0; 0,1
    V 0: 1,1

Parsing then printing is the identity up to whitespace.
"""

from __future__ import annotations

import re

from .exactla import Matrix, get_field
from .bipoly import ParseError, parse_biform
from .linecoh import FormMatrix
from .presheaf import KerPresentation, MonadPresentation
from .flmod import FinLengthModule
from .horrocks import HorrocksTriple


def _field_header(field) -> str:
    return f"field {field.name}"


def _parse_header(lines):
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines or not lines[0].startswith("field"):
        raise ParseError("missing field header")
    header = lines.pop(0).split(None, 1)
    if len(header) < 2:
        raise ParseError("field header names no field")
    field = get_field(header[1])
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines:
        raise ParseError("missing kind marker")
    kind = lines.pop(0).strip()
    return field, kind


def _matrix_to_text(m: Matrix) -> str:
    field = m.field
    return ";".join(",".join(field.format_scalar(x) for x in m.a[i, :]) for i in range(m.rows))


def _matrix_from_text(field, text: str, rows: int, cols: int) -> Matrix:
    text = text.strip()
    if not text:
        return Matrix.zeros(field, rows, cols)
    data = [[field.scalar(x) for x in row.split(",")] for row in text.split(";")]
    m = Matrix.make(field, data)
    if m.rows != rows or m.cols != cols:
        raise ParseError(f"matrix shape {m.rows}x{m.cols}, expected {rows}x{cols}")
    return m


# ---------------------------------------------------------------------------
# modules


def format_module_body(m: FinLengthModule) -> list[str]:
    if m.is_zero:
        return ["degrees 0..-1"]
    out = [f"degrees {m.lo}..{m.hi}"]
    for d in m.support():
        out.append(f"dim {d}: {m.dim(d)}")
    for d in m.support():
        if m.dim(d + 1) == 0:
            continue
        for k in range(4):
            out.append(f"x{k} {d}: {_matrix_to_text(m.op(k, d))}")
    return out


def format_module_text(m: FinLengthModule) -> str:
    return "\n".join([_field_header(m.field), "module"] + format_module_body(m)) + "\n"


_DIM_RE = re.compile(r"dim\s+(-?\d+)\s*:\s*(\d+)$")
_OP_RE = re.compile(r"x([0-3])\s+(-?\d+)\s*:\s*(.*)$")


def parse_module_body(field, lines) -> FinLengthModule:
    dims: dict[int, int] = {}
    op_text: dict[tuple[int, int], str] = {}
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("degrees"):
            continue
        m = _DIM_RE.match(line)
        if m:
            if int(m.group(2)):
                dims[int(m.group(1))] = int(m.group(2))
            continue
        m = _OP_RE.match(line)
        if m:
            op_text[(int(m.group(1)), int(m.group(2)))] = m.group(3)
            continue
        raise ParseError(f"unrecognised module line: {line!r}")
    ops = {}
    for (k, d), text in op_text.items():
        ops[(k, d)] = _matrix_from_text(field, text, dims.get(d + 1, 0), dims.get(d, 0))
    mod = FinLengthModule(field, dims, ops)
    mod.validate()
    return mod


def parse_module_text(text: str) -> FinLengthModule:
    """Read a module file, as `qhorrocks random-module` writes it.

    The package itself only reads modules embedded in triple files; this is
    the one reader of the standalone module format, so it stays public, and
    the benchmark's tracer (perfbench/tracer.py) times it as a parse target.
    """
    lines = text.splitlines()
    field, kind = _parse_header(lines)
    if kind != "module":
        raise ParseError(f"expected a module file, found {kind!r}")
    return parse_module_body(field, lines)


# ---------------------------------------------------------------------------
# bundles


_TWIST_RE = re.compile(r"\(\s*(-?\d+)\s*,\s*(-?\d+)\s*\)")
_TWIST_LIST_RE = re.compile(rf"\s*(?:{_TWIST_RE.pattern}\s*)*")


def _twists_to_text(ts) -> str:
    return " ".join(f"({a},{b})" for a, b in ts)


def _twists_from_text(text: str):
    if not _TWIST_LIST_RE.fullmatch(text):
        raise ParseError(f"twist list must be a sequence of (a,b) pairs, found {text.strip()!r}")
    return tuple((int(a), int(b)) for a, b in _TWIST_RE.findall(text))


def _rows_to_text(g: FormMatrix) -> list[str]:
    return ["[" + ", ".join(str(f) for f in row) + "]" for row in g.entries]


def _rows_from_lines(field, lines, src, dst) -> FormMatrix:
    rows = []
    for i in range(len(dst)):
        while lines and not lines[0].strip():
            lines.pop(0)
        if not lines or not lines[0].strip().startswith("["):
            raise ParseError(f"expected {len(dst)} bracketed matrix rows")
        body = lines.pop(0).strip()
        if not body.endswith("]"):
            raise ParseError(f"unterminated row: {body!r}")
        cells = [c.strip() for c in body[1:-1].split(",")] if body[1:-1].strip() else []
        if len(cells) != len(src):
            raise ParseError(f"row {i} has {len(cells)} entries, expected {len(src)}")
        row = []
        for j, cell in enumerate(cells):
            want = (dst[i][0] - src[j][0], dst[i][1] - src[j][1])
            row.append(parse_biform(field, cell, want))
        rows.append(tuple(row))
    if any(line.strip() for line in lines):
        raise ParseError(f"more matrix rows than the {len(dst)} twists of the target")
    return FormMatrix.make(field, src, dst, rows)


def format_bundle_text(rep) -> str:
    field = rep.field
    out = [_field_header(field)]
    if isinstance(rep, MonadPresentation):
        out.append("bundle monad")
        out.append(f"K: {_twists_to_text(rep.K)}")
        out.append(f"A: {_twists_to_text(rep.A)}")
        out.append(f"B: {_twists_to_text(rep.B)}")
        out.append("kappa:")
        out.extend(_rows_to_text(rep.kappa))
        out.append("g:")
        out.extend(_rows_to_text(rep.psi))
    else:
        out.append("bundle gamma")
        out.append(f"A: {_twists_to_text(rep.A)}")
        out.append(f"B: {_twists_to_text(rep.B)}")
        out.append("g:")
        out.extend(_rows_to_text(rep.g))
    return "\n".join(out) + "\n"


def parse_bundle_text(text: str):
    lines = text.splitlines()
    field, kind = _parse_header(lines)
    if kind not in ("bundle gamma", "bundle monad"):
        raise ParseError(f"expected a bundle file, found {kind!r}")
    sections: dict[str, str] = {}
    order = []
    while lines:
        line = lines.pop(0).strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith(("K:", "A:", "B:")):
            sections[line[0]] = line[2:]
        elif line in ("kappa:", "g:"):
            rows = []
            while lines and lines[0].strip().startswith("["):
                rows.append(lines.pop(0))
            sections[line[:-1]] = rows
        else:
            raise ParseError(f"unrecognised bundle line: {line!r}")
    if "A" not in sections or "B" not in sections:
        raise ParseError("bundle file needs A: and B: twist lists")
    if kind == "bundle gamma" and ("K" in sections or "kappa" in sections):
        raise ParseError("a gamma bundle has no K: or kappa: section; use 'bundle monad'")
    a = _twists_from_text(sections["A"])
    b = _twists_from_text(sections["B"])
    g = _rows_from_lines(field, list(sections.get("g", [])), a, b)
    if kind == "bundle gamma":
        return KerPresentation(g)
    k = _twists_from_text(sections.get("K", ""))
    kappa = _rows_from_lines(field, list(sections.get("kappa", [])), k, a)
    return MonadPresentation(kappa, g)


# ---------------------------------------------------------------------------
# triples


def format_triple_text(t: HorrocksTriple) -> str:
    m = t.module
    out = [_field_header(m.field), "triple", "module"] + format_module_body(m)
    for name, sub in (("W", t.W), ("V", t.V)):
        for d in sorted(sub):
            basis = sub[d]
            if basis.cols == 0:
                continue
            vecs = "; ".join(
                ",".join(m.field.format_scalar(x) for x in basis.a[:, j]) for j in range(basis.cols)
            )
            out.append(f"{name} {d}: {vecs}")
    return "\n".join(out) + "\n"


_SUB_RE = re.compile(r"([WV])\s+(-?\d+)\s*:\s*(.*)$")


def parse_triple_text(text: str) -> HorrocksTriple:
    lines = text.splitlines()
    field, kind = _parse_header(lines)
    if kind != "triple":
        raise ParseError(f"expected a triple file, found {kind!r}")
    while lines and not lines[0].strip():
        lines.pop(0)
    if not lines or lines.pop(0).strip() != "module":
        raise ParseError("triple file needs an embedded module block")
    module_lines = []
    sub_lines = []
    for line in lines:
        if _SUB_RE.match(line.strip()):
            sub_lines.append(line.strip())
        else:
            module_lines.append(line)
    module = parse_module_body(field, module_lines)
    w: dict[int, list] = {}
    v: dict[int, list] = {}
    for line in sub_lines:
        m = _SUB_RE.match(line)
        name, d, body = m.group(1), int(m.group(2)), m.group(3)
        vecs = []
        for chunk in body.split(";"):
            chunk = chunk.strip()
            if chunk:
                vecs.append([field.scalar(x) for x in chunk.split(",")])
        if vecs:
            target = w if name == "W" else v
            target.setdefault(d, []).extend(
                Matrix.make(field, [vec]).a[0, :] for vec in vecs
            )
    return HorrocksTriple.build(module, w, v)
