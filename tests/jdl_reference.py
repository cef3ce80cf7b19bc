"""Second opinion on the expression language, for tests only.

`model_eval` re-implements the documented three-valued semantics from
scratch (structural match, own UNDEF sentinel) so the production
evaluator can be checked against an independent reading of the rules.
`gen_expr`/`gen_env` build random expression trees and machine
environments from a seeded RNG; value types are kept to shapes whose
canonical rendering survives the lexer (no exponent floats, negatives
only via the unary operator).  `expr_text` and `description_text` are
that canonical rendering: the printer that turns trees and descriptions
back into parser input.  The package itself never writes a description
out, so the printer lives here, reading the package's own operator and
reserved-attribute tables.
"""
from deskgrid.jdl import (_CMP_PREC, _PREC, _RESERVED, _UNARY_PREC, UNDEFINED, Attr,
                          Binary, Lit, ListLit, MemberCall, Unary)

UNDEF = object()


def _num(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def model_eval(node, env):
    match node:
        case Lit(value=v):
            return v
        case Attr(name=name):
            if name not in env:
                return UNDEF
            v = env[name]
            return tuple(v) if isinstance(v, list) else v
        case ListLit(items=items):
            out = []
            for item in items:
                v = model_eval(item, env)
                if not isinstance(v, str):
                    return UNDEF
                out.append(v)
            return tuple(out)
        case MemberCall(value=value, items=items):
            needle = model_eval(value, env)
            hay = model_eval(items, env)
            if isinstance(needle, str) and isinstance(hay, tuple):
                return needle in hay
            return UNDEF
        case Unary(op="!", operand=operand):
            v = model_eval(operand, env)
            return (not v) if isinstance(v, bool) else UNDEF
        case Unary(op="-", operand=operand):
            v = model_eval(operand, env)
            return -v if _num(v) else UNDEF
        case Binary(op="||", left=left, right=right):
            lv = model_eval(left, env)
            if lv is True:
                return True
            if lv is not False:
                return UNDEF
            rv = model_eval(right, env)
            return rv if isinstance(rv, bool) else UNDEF
        case Binary(op="&&", left=left, right=right):
            lv = model_eval(left, env)
            if lv is False:
                return False
            if lv is not True:
                return UNDEF
            rv = model_eval(right, env)
            return rv if isinstance(rv, bool) else UNDEF
        case Binary(op=op, left=left, right=right):
            lv = model_eval(left, env)
            rv = model_eval(right, env)
            if op in ("==", "!="):
                comparable = ((_num(lv) and _num(rv))
                              or (isinstance(lv, str) and isinstance(rv, str))
                              or (isinstance(lv, bool) and isinstance(rv, bool)))
                if not comparable:
                    return UNDEF
                return (lv == rv) if op == "==" else (lv != rv)
            if not (_num(lv) and _num(rv)):
                return UNDEF
            if op == "<":
                return lv < rv
            if op == "<=":
                return lv <= rv
            if op == ">":
                return lv > rv
            return lv >= rv
    raise AssertionError(f"unhandled node {node!r}")


def values_agree(real, model) -> bool:
    """Type-strict agreement between the production evaluator's result and
    the model's (so True never passes for 1, nor 2 for 2.0)."""
    if model is UNDEF or real is UNDEFINED:
        return model is UNDEF and real is UNDEFINED
    return type(real) is type(model) and real == model


def ast_equal(a, b) -> bool:
    """Structural equality that keeps Lit(True) distinct from Lit(1)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Lit):
        return type(a.value) is type(b.value) and a.value == b.value
    if isinstance(a, Attr):
        return a.name == b.name
    if isinstance(a, ListLit):
        return (len(a.items) == len(b.items)
                and all(ast_equal(x, y) for x, y in zip(a.items, b.items)))
    if isinstance(a, Unary):
        return a.op == b.op and ast_equal(a.operand, b.operand)
    if isinstance(a, Binary):
        return (a.op == b.op and ast_equal(a.left, b.left)
                and ast_equal(a.right, b.right))
    if isinstance(a, MemberCall):
        return ast_equal(a.value, b.value) and ast_equal(a.items, b.items)
    raise AssertionError(f"unhandled node {a!r}")


ATTR_POOL = ("RunTimeEnvironment", "LRMSType", "EstimatedTraversalTime",
             "CEId", "Color", "Missing", "Shelf")
STRING_POOL = ("CMS", "CMS-1.2", "PBS", "LSF", "red", "blue", "", "a b",
               'quo"te', "back\\slash")


def gen_leaf(rng):
    kind = rng.randrange(6)
    if kind == 0:
        return Lit(rng.random() < 0.5)
    if kind == 1:
        return Lit(rng.randrange(0, 100))
    if kind == 2:
        return Lit(rng.randrange(0, 401) / 4)  # plain-repr floats only
    if kind == 3:
        return Lit(rng.choice(STRING_POOL))
    if kind == 4:
        return ListLit(tuple(Lit(rng.choice(STRING_POOL))
                             for _ in range(rng.randrange(0, 3))))
    return Attr(rng.choice(ATTR_POOL))


def gen_expr(rng, depth=4):
    if depth <= 0 or rng.random() < 0.3:
        return gen_leaf(rng)
    kind = rng.randrange(8)
    if kind == 0:
        return Unary("!" if rng.random() < 0.5 else "-", gen_expr(rng, depth - 1))
    if kind == 1:
        return ListLit(tuple(gen_expr(rng, depth - 1)
                             for _ in range(rng.randrange(0, 3))))
    if kind == 2:
        return MemberCall(gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))
    op = rng.choice(("||", "&&", "==", "!=", "<", "<=", ">", ">="))
    return Binary(op, gen_expr(rng, depth - 1), gen_expr(rng, depth - 1))


def gen_env(rng) -> dict:
    env = {}
    for name in ATTR_POOL:
        roll = rng.randrange(5)
        if roll == 0:
            continue  # left unbound
        if roll == 1:
            env[name] = rng.choice(STRING_POOL)
        elif roll == 2:
            env[name] = rng.randrange(0, 1000)
        elif roll == 3:
            env[name] = rng.random() < 0.5
        else:
            env[name] = tuple(rng.choice(STRING_POOL)
                              for _ in range(rng.randrange(0, 4)))
    return env


# --------------------------------------------------------------------------
# canonical printer

_ATOM = _UNARY_PREC + 1


def _prec(expr) -> int:
    if isinstance(expr, Binary):
        return _PREC[expr.op]
    if isinstance(expr, Unary):
        return _UNARY_PREC
    return _ATOM


def expr_text(expr) -> str:
    """Canonical rendering; parse(expr_text(e)) is structurally e."""
    if isinstance(expr, Lit):
        v = expr.value
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, str):
            escaped = v.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        return repr(v)
    if isinstance(expr, ListLit):
        return "{" + ", ".join(expr_text(i) for i in expr.items) + "}"
    if isinstance(expr, Attr):
        return f"other.{expr.name}"
    if isinstance(expr, MemberCall):
        return f"Member({expr_text(expr.value)}, {expr_text(expr.items)})"
    if isinstance(expr, Unary):
        inner = expr_text(expr.operand)
        if _prec(expr.operand) < _UNARY_PREC:
            inner = f"({inner})"
        return f"{expr.op}{inner}"
    if isinstance(expr, Binary):
        mine = _PREC[expr.op]
        left = expr_text(expr.left)
        right = expr_text(expr.right)
        # left-associative chains keep the left child unparenthesized at
        # equal precedence; comparisons do not chain at all
        if _prec(expr.left) < mine or _prec(expr.left) == mine == _CMP_PREC:
            left = f"({left})"
        if _prec(expr.right) <= mine:
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    raise TypeError(f"not an expression: {expr!r}")


def description_text(jd) -> str:
    """Canonical rendering of a `JobDescription`: reserved attributes in
    table order, less those that are None or (), then the extras."""
    lines = [f"{name} = {_render(value)};"
             for name, (field_name, _read) in _RESERVED.items()
             if (value := getattr(jd, field_name)) is not None and value != ()]
    lines += [f"{name} = {expr_text(expr)};" for name, expr in jd.extras.items()]
    return "\n".join(lines) + "\n"


def _render(value) -> str:
    if isinstance(value, tuple):
        value = ListLit(tuple(Lit(item) for item in value))
    elif isinstance(value, (str, int)):
        value = Lit(value)
    return expr_text(value)
