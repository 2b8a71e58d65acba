"""File formats: spaces, maps, lifted spaces with generator sidecars, and
DOT export.

Parsers insist on canonical form and answer malformed input with a
diagnostic rather than repairing it.
"""

from __future__ import annotations

import json
from typing import Any

from .errors import InvalidInput
from .filters import LiftedSpace
from .spaces import (
    ContinuousMap,
    FiniteSpace,
    mask_of,
    mask_to_points,
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
    # JSON true/false load as bool, an int subclass; neither is a count or an index
    if type(n) is not int or n < 1:
        raise InvalidInput('"points" must be a positive integer')
    opens_lists = data["opens"]
    if not isinstance(opens_lists, list):
        raise InvalidInput('"opens" must be a list of index lists')
    masks = []
    for entry in opens_lists:
        if not isinstance(entry, list) or any(type(i) is not int for i in entry):
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


def lifted_sidecar_to_json(lifted: LiftedSpace) -> dict[str, Any]:
    """Per-point generator listing that accompanies a lifted space file."""
    return {
        "kind": lifted.kind,
        "base": space_to_json(lifted.base),
        "generators": [list(mask_to_points(g)) for g in lifted.generators],
    }


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
    except UnicodeDecodeError as exc:
        raise InvalidInput(f"{path} is not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    except RecursionError as exc:
        # the decoder recurses once per nested array or object
        raise InvalidInput(f"{path} nests too deeply to decode") from exc


# ---------------------------------------------------------------------------
# DOT export


def _order_dot(name: str, space: FiniteSpace, prefix: str, labels: list[str]) -> str:
    """The specialization order of ``space`` as a digraph (non-reflexive arrows):
    x -> y when y lies in the minimal neighbourhood of x."""
    hoods = space.hoods
    lines = [f"digraph {name} {{"]
    lines += [f'  {prefix}{x} [label="{label}"];' for x, label in enumerate(labels)]
    for x in range(space.n):
        for y in range(space.n):
            if x != y and hoods[x] >> y & 1:
                lines.append(f"  {prefix}{x} -> {prefix}{y};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def specialization_dot(space: FiniteSpace, name: str = "specialization") -> str:
    """The specialization order as a digraph (non-reflexive arrows)."""
    return _order_dot(name, space, "p", [str(x) for x in range(space.n)])


def lifted_dot(lifted: LiftedSpace, name: str = "lifted") -> str:
    """Lifted-space specialization digraph with generator labels."""
    labels = ["^{" + ",".join(map(str, mask_to_points(g))) + "}" for g in lifted.generators]
    return _order_dot(name, lifted.space, "f", labels)
