"""File formats: spaces, maps, lifted spaces with generator sidecars,
frames, and DOT export.

Parsers insist on canonical form and answer malformed input with a
diagnostic rather than repairing it.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import InvalidInput
from .filters import LiftedSpace
from .frames import FiniteFrame, frame_from_leq
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    mask_of,
    mask_to_points,
    specialization,
)


def space_to_json(space: FiniteSpace) -> dict[str, Any]:
    return {
        "points": space.n,
        "opens": [list(mask_to_points(o)) for o in space.opens],
    }


def space_from_json(data: Any) -> FiniteSpace:
    if not isinstance(data, dict) or set(data) != {"points", "opens"}:
        raise InvalidInput('a space needs exactly the keys "points" and "opens"')
    n = data["points"]
    if not isinstance(n, int) or n < 1:
        raise InvalidInput('"points" must be a positive integer')
    opens_lists = data["opens"]
    if not isinstance(opens_lists, list):
        raise InvalidInput('"opens" must be a list of index lists')
    masks = []
    for entry in opens_lists:
        if not isinstance(entry, list) or any(not isinstance(i, int) for i in entry):
            raise InvalidInput(f"open {entry!r} is not a list of integers")
        if entry != sorted(set(entry)):
            raise InvalidInput(f"open {entry!r} is not sorted and duplicate-free")
        masks.append(mask_of(entry, n))
    if masks != sorted(set(masks)):
        raise InvalidInput("opens are not listed in canonical ascending order")
    try:
        return FiniteSpace(n, tuple(masks))
    except InvalidInput as exc:
        raise InvalidInput(f"not a topology: {exc}") from exc


def map_to_json(f: ContinuousMap) -> dict[str, Any]:
    return {
        "dom": space_to_json(f.dom),
        "cod": space_to_json(f.cod),
        "map": list(f.map),
    }


def map_from_json(data: Any) -> ContinuousMap:
    if not isinstance(data, dict) or set(data) != {"dom", "cod", "map"}:
        raise InvalidInput('a map needs exactly the keys "dom", "cod" and "map"')
    dom = space_from_json(data["dom"])
    cod = space_from_json(data["cod"])
    arr = data["map"]
    if not isinstance(arr, list) or any(not isinstance(v, int) for v in arr):
        raise InvalidInput('"map" must be a list of integers')
    try:
        return ContinuousMap(dom, cod, tuple(arr))
    except InvalidInput as exc:
        raise InvalidInput(f"not a continuous map: {exc}") from exc


def lifted_sidecar_to_json(lifted: LiftedSpace) -> dict[str, Any]:
    """Per-point generator listing that accompanies a lifted space file."""
    return {
        "kind": lifted.kind,
        "base": space_to_json(lifted.base),
        "generators": [list(mask_to_points(p.generator)) for p in lifted.points],
    }


def frame_to_json(frame: FiniteFrame) -> dict[str, Any]:
    pairs = [
        [a, b] for a in range(frame.k) for b in range(frame.k) if frame.leq[a][b]
    ]
    return {"elements": frame.k, "leq": pairs}


def frame_from_json(data: Any) -> FiniteFrame:
    if not isinstance(data, dict) or set(data) != {"elements", "leq"}:
        raise InvalidInput('a frame needs exactly the keys "elements" and "leq"')
    k = data["elements"]
    if not isinstance(k, int) or k < 1:
        raise InvalidInput('"elements" must be a positive integer')
    rows = [[False] * k for _ in range(k)]
    pairs = data["leq"]
    if not isinstance(pairs, list):
        raise InvalidInput('"leq" must be a list of [i, j] pairs')
    for pair in pairs:
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or any(not isinstance(v, int) or not 0 <= v < k for v in pair)
        ):
            raise InvalidInput(f"bad order pair {pair!r}")
        rows[pair[0]][pair[1]] = True
    try:
        return frame_from_leq(k, rows)
    except InvalidInput as exc:
        raise InvalidInput(f"not a bounded distributive lattice: {exc}") from exc


def dumps(data: Any) -> str:
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def load_space(path: str) -> FiniteSpace:
    return space_from_json(_load(path))


def _load(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc


# ---------------------------------------------------------------------------
# DOT export


def _order_dot(name: str, space: FiniteSpace, prefix: str, labels: list[str]) -> str:
    """The specialization order of ``space`` as a digraph (non-reflexive arrows)."""
    leq = specialization(space).leq
    lines = [f"digraph {name} {{"]
    lines += [f'  {prefix}{x} [label="{label}"];' for x, label in enumerate(labels)]
    for x in range(space.n):
        for y in range(space.n):
            if x != y and leq[x][y]:
                lines.append(f"  {prefix}{x} -> {prefix}{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def specialization_dot(space: FiniteSpace, name: str = "specialization") -> str:
    """The specialization order as a digraph (non-reflexive arrows)."""
    return _order_dot(name, space, "p", [str(x) for x in range(space.n)])


def lifted_dot(lifted: LiftedSpace, name: str = "lifted") -> str:
    """Lifted-space specialization digraph with generator labels."""
    labels = [
        "^{" + ",".join(map(str, mask_to_points(p.generator))) + "}" for p in lifted.points
    ]
    return _order_dot(name, lifted.space, "f", labels)
