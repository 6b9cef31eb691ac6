"""Index-provenance dataflow: the abstract domain of the static analyzer.

The race question for a plain ``scatter`` is entirely a question about
its *index expression*: can two work items carry the same address?  The
engines build scatter indices from a small set of idioms, each with a
provable aliasing story, so a tiny abstract interpretation over
assignments answers it at authoring time:

``constant``
    a literal / scalar — one address (one writer in this DSL's idiom).
``affine``
    ``np.arange(n)`` and offset translations of it — injective in the
    work-item id, the canonical thread-id-affine index.
``unique``
    results of ``sorted_unique_ints`` / ``np.unique`` / ``np.union1d`` /
    ``np.flatnonzero`` (and boolean-mask restrictions of any injective
    array) — provably
    duplicate-free, though not id-affine.
``gathered``
    values loaded from device memory (``k.gather`` results, adjacency
    targets) — two threads may legitimately hold the same vertex id, so
    a plain scatter through them is exactly the race ``atomic_min``
    exists to absorb.
``param:<name>``
    a device-function formal — resolved against the caller's argument
    provenance when the function is inlined into a kernel.
``unknown``
    everything else.

Boolean masks (comparisons, ``np.isfinite``, ``~mask``) are tracked as a
side domain because ``x[mask]`` preserves duplicate-freedom while
``x[perm]`` does not.
"""

from __future__ import annotations

import ast

__all__ = [
    "CONST",
    "AFFINE",
    "UNIQUE",
    "GATHERED",
    "UNKNOWN",
    "INJECTIVE",
    "Env",
    "param_tag",
    "is_param",
    "param_name",
    "expr_text",
    "canonical_array",
    "eval_provenance",
    "value_class",
    "note_assignment",
]

CONST = "constant"
AFFINE = "affine"
UNIQUE = "unique"
GATHERED = "gathered"
UNKNOWN = "unknown"

#: provenance tags under which a scatter is provably duplicate-free
INJECTIVE = frozenset({CONST, AFFINE, UNIQUE})

#: producers whose results are provably duplicate-free
_UNIQUE_FNS = frozenset({"sorted_unique_ints", "unique", "union1d",
                         "flatnonzero", "nonzero", "argsort", "argpartition",
                         "where"})
#: producers of boolean masks
_MASK_FNS = frozenset({"isfinite", "isnan", "isinf", "zeros", "ones"})
#: wrappers that preserve the argument's provenance
_TRANSPARENT_FNS = frozenset({"asarray", "ascontiguousarray", "array",
                              "atleast_1d", "abs", "minimum", "maximum"})
#: uniform-value producers (every element identical)
_UNIFORM_FNS = frozenset({"full", "zeros", "ones", "full_like",
                          "zeros_like", "ones_like"})


def param_tag(name: str) -> str:
    """The provenance tag of an unresolved formal parameter."""
    return f"param:{name}"


def is_param(tag: str) -> bool:
    """True for ``param:<name>`` tags."""
    return tag.startswith("param:")


def param_name(tag: str) -> str:
    """The formal name inside a ``param:<name>`` tag."""
    return tag.partition(":")[2]


class Env:
    """Abstract state: variable name → provenance, plus mask/uniform sets."""

    def __init__(self) -> None:
        self.prov: dict[str, str] = {}
        #: names currently bound to boolean masks
        self.masks: set[str] = set()
        #: names currently bound to uniform-valued arrays (np.full & co.)
        self.uniform: set[str] = set()

    def copy(self) -> "Env":
        out = Env()
        out.prov = dict(self.prov)
        out.masks = set(self.masks)
        out.uniform = set(self.uniform)
        return out

    def bind_params(self, names) -> None:
        """Bind formal parameters to ``param:<name>`` provenance."""
        for n in names:
            self.prov[n] = param_tag(n)


# ----------------------------------------------------------------------
# expression helpers
# ----------------------------------------------------------------------

def expr_text(node: ast.AST) -> str:
    """Compact source text of an expression (``ast.unparse``)."""
    try:
        return ast.unparse(node)
    except Exception:  # pragma: no cover - malformed synthetic nodes
        return "<expr>"


def canonical_array(node: ast.AST) -> str:
    """Canonical device-array name: the last dotted segment of the expr.

    ``dgraph.adj`` → ``adj``; ``self.flags`` → ``flags``;
    ``dev_dist[g]`` → ``dev_dist``.  Variable-based naming is stable
    across runs, which is what the manifest gate needs.
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return expr_text(node)


def _callee_name(node: ast.Call) -> str:
    f = node.func
    if isinstance(f, ast.Attribute):
        return f.attr
    if isinstance(f, ast.Name):
        return f.id
    return ""


def _is_scalar_const(node: ast.AST) -> bool:
    return isinstance(node, ast.Constant) and isinstance(
        node.value, (int, float, bool)
    )


def is_mask_expr(node: ast.AST, env: Env) -> bool:
    """True when ``node`` is (conservatively) a boolean mask expression."""
    if isinstance(node, ast.Compare):
        return True
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.Invert, ast.Not)):
        return is_mask_expr(node.operand, env) or True
    if isinstance(node, ast.BoolOp):
        return True
    if isinstance(node, ast.BinOp) and isinstance(
        node.op, (ast.BitAnd, ast.BitOr, ast.BitXor)
    ):
        return is_mask_expr(node.left, env) and is_mask_expr(node.right, env)
    if isinstance(node, ast.Name):
        return node.id in env.masks
    if isinstance(node, ast.Call):
        return _callee_name(node) in _MASK_FNS and _callee_name(node) not in (
            "zeros", "ones"
        )
    if isinstance(node, ast.Subscript):
        # mask[idx] stays boolean (e.g. ``~in_near[fresh]`` inner part)
        return is_mask_expr(node.value, env)
    if isinstance(node, ast.Attribute):
        # ``arr.data`` of a boolean device array — unknowable; be strict
        return False
    return False


def eval_provenance(node: ast.AST, env: Env) -> str:
    """Abstract-evaluate an index expression to a provenance tag."""
    if _is_scalar_const(node):
        return CONST
    if isinstance(node, ast.Name):
        return env.prov.get(node.id, UNKNOWN)
    if isinstance(node, ast.Call):
        name = _callee_name(node)
        if name == "arange":
            return AFFINE
        if name in _UNIQUE_FNS:
            return UNIQUE
        if name in _TRANSPARENT_FNS and node.args:
            return eval_provenance(node.args[0], env)
        if name == "astype" and isinstance(node.func, ast.Attribute):
            return eval_provenance(node.func.value, env)
        if name == "gather":
            return GATHERED
        return UNKNOWN
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = eval_provenance(node.left, env)
        right = eval_provenance(node.right, env)
        # offset + arange: a scalar translation keeps injectivity (the
        # compaction idiom ``out[offset + arange(k)]``); adding two
        # non-constant arrays does not
        if left == CONST and right == CONST:
            return CONST
        if left == AFFINE and (right == CONST or _is_scalar_offset(node.right)):
            return AFFINE
        if right == AFFINE and (left == CONST or _is_scalar_offset(node.left)):
            return AFFINE
        return UNKNOWN
    if isinstance(node, ast.Subscript):
        base = eval_provenance(node.value, env)
        sl = node.slice
        if isinstance(sl, ast.Slice):
            # a contiguous slice preserves duplicate-freedom
            return UNIQUE if base in INJECTIVE else base
        if is_mask_expr(sl, env):
            # boolean restriction preserves duplicate-freedom (an affine
            # index stops being id-affine but stays duplicate-free)
            if base in INJECTIVE:
                return UNIQUE
            return base
        # fancy integer indexing may duplicate elements
        return UNKNOWN if base in INJECTIVE else base
    if isinstance(node, ast.Attribute):
        return UNKNOWN
    if isinstance(node, ast.Starred):
        return eval_provenance(node.value, env)
    return UNKNOWN


def _is_scalar_offset(node: ast.AST) -> bool:
    """Heuristic: bare names and ``len(...)``/``int(...)`` results used as
    additive offsets are scalars in the corpus idiom
    (``out[offset + np.arange(k)]``)."""
    if isinstance(node, ast.Name):
        return True
    if isinstance(node, ast.Call):
        return _callee_name(node) in ("len", "int")
    return False


def value_class(node: ast.AST, env: Env) -> str:
    """Classify a scatter's value expression: uniform / varied / unknown.

    ``uniform`` means every stored element provably carries one value
    (``np.full`` / ``np.zeros`` / a scalar) — the flag-marking idiom the
    dynamic sanitizer downgrades to a benign warning.
    """
    if _is_scalar_const(node):
        return "uniform"
    if isinstance(node, ast.Call):
        name = _callee_name(node)
        if name in _UNIFORM_FNS:
            return "uniform"
        if name in _TRANSPARENT_FNS and node.args:
            return value_class(node.args[0], env)
        if name == "astype" and isinstance(node.func, ast.Attribute):
            return value_class(node.func.value, env)
        return "unknown"
    if isinstance(node, ast.Name):
        if node.id in env.uniform:
            return "uniform"
        if node.id in env.prov:
            return "varied"
        return "unknown"
    if isinstance(node, ast.Subscript):
        # a masked/sliced view of a uniform array stays uniform
        return value_class(node.value, env)
    return "varied"


def note_assignment(target: ast.AST, value: ast.AST, env: Env) -> None:
    """Update the environment for one ``target = value`` binding."""
    names: list[str] = []
    if isinstance(target, ast.Name):
        names = [target.id]
    elif isinstance(target, (ast.Tuple, ast.List)):
        # tuple unpack: results of one call — conservatively unknown,
        # unless the RHS is a matching tuple literal
        if isinstance(value, (ast.Tuple, ast.List)) and len(value.elts) == len(
            target.elts
        ):
            for t, v in zip(target.elts, value.elts):
                note_assignment(t, v, env)
            return
        for t in target.elts:
            if isinstance(t, ast.Name):
                env.prov[t.id] = UNKNOWN
                env.masks.discard(t.id)
                env.uniform.discard(t.id)
        return
    else:
        return
    name = names[0]
    env.prov[name] = eval_provenance(value, env)
    if is_mask_expr(value, env):
        env.masks.add(name)
    else:
        env.masks.discard(name)
    if value_class(value, env) == "uniform":
        env.uniform.add(name)
    else:
        env.uniform.discard(name)
