"""Group-definition files (strict JSON schema) and report serialization.

The definition file is versioned ("format": 1) and rejected on any unknown
field; reports are rendered with full 17-significant-digit floats so runs
are comparable byte-for-byte apart from the wall-time entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .caps import SphericalCap
from .cusp import CuspEnd
from .group import GroupPresentation, TAG_CUSTOM, make_cyclic, make_schottky
from .mobius import MobiusMap

FORMAT_VERSION = 1

_TOP_FIELDS = {
    "format", "dimension", "kind", "ball_pairs", "generators", "cusp_ends",
    "seed", "depths", "epsilon0", "tolerances",
}
_GEN_FIELDS = {"n", "eps", "a", "r", "A", "b"}
_CAP_FIELDS = {"center", "theta"}
_CUSP_FIELDS = {"n", "m", "R", "lattice_basis", "vol_K"}


class ValidationError(ValueError):
    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


def _require_fields(obj: dict, allowed: set, required: set, path: str):
    unknown = set(obj) - allowed
    if unknown:
        raise ValidationError(path, f"unknown fields {sorted(unknown)}")
    missing = required - set(obj)
    if missing:
        raise ValidationError(path, f"missing fields {sorted(missing)}")


def _is_int(value) -> bool:
    """A JSON integer: True and False are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _list_field(doc: dict, key: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise ValidationError(f"$.{key}", "must be a list")
    return value


def _finite_floats(value, path: str) -> np.ndarray:
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ValidationError(path, "entries must be numbers") from exc
    if not np.all(np.isfinite(arr)):
        raise ValidationError(path, "non-finite numeric entries")
    return arr


@dataclass(frozen=True)
class GroupDefinition:
    """Parsed group definition with run defaults."""

    presentation: GroupPresentation
    cusp_ends: tuple[CuspEnd, ...]
    seed: int
    depths: tuple[int, ...]
    epsilon0: float
    tolerances: dict = field(default_factory=dict)
    kind: str = TAG_CUSTOM


def mobius_to_record(g: MobiusMap) -> dict:
    return {
        "n": g.n,
        "eps": g.eps,
        "a": g.a.tolist(),
        "r": g.r,
        "A": g.A.reshape(-1).tolist(),
        "b": g.b.tolist(),
    }


def mobius_from_record(rec: dict, path: str) -> MobiusMap:
    if not isinstance(rec, dict):
        raise ValidationError(path, "generator record must be an object")
    _require_fields(rec, _GEN_FIELDS, _GEN_FIELDS, path)
    n = rec["n"]
    if not isinstance(n, int) or n < 1:
        raise ValidationError(f"{path}.n", "dimension must be a positive integer")
    if rec["eps"] not in (0, 1):
        raise ValidationError(f"{path}.eps", "eps must be 0 or 1")
    a = _finite_floats(rec["a"], f"{path}.a")
    b = _finite_floats(rec["b"], f"{path}.b")
    A = _finite_floats(rec["A"], f"{path}.A")
    r = float(_finite_floats(rec["r"], f"{path}.r"))
    if a.size != n or b.size != n or A.size != n * n:
        raise ValidationError(path, "field sizes inconsistent with n")
    if r <= 0:
        raise ValidationError(f"{path}.r", "scale must be positive")
    M = A.reshape(n, n)
    if np.max(np.abs(M.T @ M - np.eye(n))) > 1e-8:
        raise ValidationError(f"{path}.A", "matrix is not orthogonal at 1e-8")
    return MobiusMap(n, int(rec["eps"]), a, r, M, b)


def cap_from_record(rec: dict, dimension: int, path: str) -> SphericalCap:
    if not isinstance(rec, dict):
        raise ValidationError(path, "cap record must be an object")
    _require_fields(rec, _CAP_FIELDS, _CAP_FIELDS, path)
    center = _finite_floats(rec["center"], f"{path}.center")
    if center.size != dimension + 1:
        raise ValidationError(
            f"{path}.center", f"need {dimension + 1} components on S^{dimension}"
        )
    theta = float(_finite_floats(rec["theta"], f"{path}.theta"))
    try:
        return SphericalCap(center=center, theta=theta)
    except Exception as exc:
        raise ValidationError(path, str(exc)) from exc


def cusp_from_record(rec: dict, path: str) -> CuspEnd:
    if not isinstance(rec, dict):
        raise ValidationError(path, "cusp record must be an object")
    _require_fields(rec, _CUSP_FIELDS, _CUSP_FIELDS - {"vol_K"}, path)
    try:
        lat = _finite_floats(rec["lattice_basis"], f"{path}.lattice_basis")
        m = int(rec["m"])
        n = int(rec["n"])
        return CuspEnd(
            n=n, m=m, R=float(rec["R"]),
            lattice_basis=lat.reshape(n - m, n - m),
            vol_K=float(rec["vol_K"]) if "vol_K" in rec else None,
        )
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(path, str(exc)) from exc


def parse_group_document(doc: dict) -> GroupDefinition:
    if not isinstance(doc, dict):
        raise ValidationError("$", "document must be a JSON object")
    _require_fields(doc, _TOP_FIELDS, {"format", "dimension", "kind"}, "$")
    if doc["format"] != FORMAT_VERSION:
        raise ValidationError("$.format", f"expected format {FORMAT_VERSION}")
    n = doc["dimension"]
    if not isinstance(n, int) or n < 1:
        raise ValidationError("$.dimension", "must be a positive integer")
    kind = doc["kind"]
    if kind not in ("schottky", "cyclic", "custom"):
        raise ValidationError("$.kind", "must be schottky, cyclic, or custom")

    if kind == "schottky":
        pairs_doc = _list_field(doc, "ball_pairs")
        if not pairs_doc:
            raise ValidationError("$.ball_pairs", "schottky files need ball_pairs")
        if "generators" in doc:
            raise ValidationError("$.generators", "schottky files use ball_pairs only")
        pairs = []
        for i, pair in enumerate(pairs_doc):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ValidationError(f"$.ball_pairs[{i}]", "need exactly two caps")
            pairs.append(
                (cap_from_record(pair[0], n, f"$.ball_pairs[{i}][0]"),
                 cap_from_record(pair[1], n, f"$.ball_pairs[{i}][1]"))
            )
        try:
            G = make_schottky(pairs)
        except Exception as exc:
            raise ValidationError("$.ball_pairs", str(exc)) from exc
    else:
        gens_doc = _list_field(doc, "generators")
        if not gens_doc:
            raise ValidationError("$.generators", f"{kind} files need generators")
        if "ball_pairs" in doc:
            raise ValidationError("$.ball_pairs", "only schottky files take ball_pairs")
        gens = [
            mobius_from_record(rec, f"$.generators[{i}]")
            for i, rec in enumerate(gens_doc)
        ]
        for i, g in enumerate(gens):
            if g.n != n:
                raise ValidationError(
                    f"$.generators[{i}]", f"dimension {g.n} != file dimension {n}"
                )
        if kind == "cyclic":
            if len(gens) != 1:
                raise ValidationError("$.generators", "cyclic files take one generator")
            G = make_cyclic(gens[0])
        else:
            try:
                G = GroupPresentation(n=n, generators=tuple(gens), tag=TAG_CUSTOM)
            except Exception as exc:
                raise ValidationError("$.generators", str(exc)) from exc

    cusps = tuple(
        cusp_from_record(rec, f"$.cusp_ends[{i}]")
        for i, rec in enumerate(_list_field(doc, "cusp_ends"))
    )
    seed = doc.get("seed", 0)
    if not _is_int(seed) or seed < 0:
        raise ValidationError("$.seed", "must be a non-negative integer")
    depths = doc.get("depths", [4, 5, 6])
    if not isinstance(depths, list) or not depths or not all(
            _is_int(d) and d >= 1 for d in depths):
        raise ValidationError("$.depths", "must be a list of positive integers")
    eps0 = doc.get("epsilon0", 0.1)
    if isinstance(eps0, bool) or not isinstance(eps0, (int, float)) or not (
            0.0 < eps0 <= 0.5):
        raise ValidationError("$.epsilon0", "must be a number in (0, 1/2]")
    tol = doc.get("tolerances", {})
    if not isinstance(tol, dict) or not all(
        isinstance(v, (int, float)) and np.isfinite(v) for v in tol.values()
    ):
        raise ValidationError("$.tolerances", "must be a flat object of finite numbers")
    return GroupDefinition(
        presentation=G, cusp_ends=cusps, seed=seed, depths=tuple(sorted(depths)),
        epsilon0=float(eps0), tolerances=dict(tol), kind=kind,
    )


def load_group_file(path) -> GroupDefinition:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ValidationError("$", f"invalid JSON: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError("--file", str(exc)) from exc
    return parse_group_document(doc)


# ---------------------------------------------------------------------------
# report rendering (17 significant digits)
# ---------------------------------------------------------------------------

def _render(obj, pieces: list, indent: int):
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            pieces.append("{}")
            return
        pieces.append("{\n")
        for i, (k, v) in enumerate(obj.items()):
            pieces.append(f"{pad}  {json.dumps(str(k))}: ")
            _render(v, pieces, indent + 1)
            pieces.append(",\n" if i < len(obj) - 1 else "\n")
        pieces.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        seq = list(obj)
        if not seq:
            pieces.append("[]")
            return
        pieces.append("[\n")
        for i, v in enumerate(seq):
            pieces.append(pad + "  ")
            _render(v, pieces, indent + 1)
            pieces.append(",\n" if i < len(seq) - 1 else "\n")
        pieces.append(pad + "]")
    elif isinstance(obj, bool) or obj is None:
        pieces.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)):
        pieces.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        pieces.append(format(x, ".17g") if np.isfinite(x) else json.dumps(str(x)))
    elif isinstance(obj, np.ndarray):
        _render(obj.tolist(), pieces, indent)
    else:
        pieces.append(json.dumps(str(obj)))


def render_report(report: dict) -> str:
    """JSON text with floats at 17 significant digits."""
    pieces: list[str] = []
    _render(report, pieces, 0)
    pieces.append("\n")
    return "".join(pieces)
