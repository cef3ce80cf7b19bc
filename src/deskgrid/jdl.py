"""Job description files and the three-valued expression language inside them.

Grammar of a description file:

    file   := { assignment ";" }
    assign := Name "=" expr
    expr   := literal | list | "other." Name | Member "(" expr "," expr ")"
            | ("!" | "-") expr | expr binop expr | "(" expr ")"
    list   := "{" [ expr { "," expr } ] "}"

Strings are double-quoted, numbers are ASCII digits with an optional
fraction, `#` starts a comment running to end of line.  `true`/`false`
and `Member` are matched case-insensitively; attribute names are not.
Binary operators from loosest to tightest binding: `||`, `&&`, a single
comparison (`== != < <= > >=`), then the unary operators `!` and `-`.
The operator table (`_PREC`, `_COMPARE`, `_UNARY`) declares each of them
once; the lexer, parser and evaluator read it, and so does the canonical
printer the tests keep as an oracle (`tests/jdl_reference.py`).

Evaluation is three-valued.  Unbound attributes and type mismatches yield
UNDEFINED, which propagates through every operator with one exception: a
`true` left arm of `||` and a `false` left arm of `&&` decide the result
without looking at the right arm.  Comparisons are defined only between
two values of one kind (two numbers, two strings, two booleans for
equality; ordering only between numbers); anything else is UNDEFINED.

Reserved attributes are folded into the typed JobDescription; the
`_RESERVED` table is the one list of them.  Unknown attributes are kept
as their parsed expressions, so a description loses nothing the file
said.  The package reads descriptions and never writes one back out;
factory jobs are built as typed descriptions, not text.
"""
from __future__ import annotations

import operator
import re
from dataclasses import MISSING, dataclass, field, fields
from typing import Mapping, Union


class JdlError(Exception):
    """Base for everything this module raises."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class JdlSyntaxError(JdlError):
    pass


class MissingAttribute(JdlError):
    def __init__(self, name: str):
        self.attribute = name
        super().__init__(f"required attribute {name} is missing")


# --------------------------------------------------------------------------
# values

class _Undefined:
    """The third truth value.  Refuses to be used as a python boolean so an
    accidental `if value:` fails loudly instead of treating it as false."""

    __slots__ = ()

    def __repr__(self):
        return "UNDEFINED"

    def __bool__(self):
        raise TypeError("UNDEFINED has no python truth value")


UNDEFINED = _Undefined()

#: boolean | number | string | list-of-strings | UNDEFINED
Value = Union[bool, int, float, str, tuple, _Undefined]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# --------------------------------------------------------------------------
# syntax tree

@dataclass(frozen=True)
class Lit:
    value: "bool | int | float | str"

    def __eq__(self, other):  # `true` is not `1`, though True == 1
        return (isinstance(other, Lit) and type(self.value) is type(other.value)
                and self.value == other.value)

    def __hash__(self):
        return hash((type(self.value), self.value))


def _hash_kept(cls):
    """Keep a composite node's hash on it once computed: a requirement
    tree keys the broker's kept sets at every match, and the generated
    `__hash__` walks the whole tree on each call."""
    tree_hash = cls.__hash__

    def __hash__(self):
        try:
            return self.__dict__["_hash"]
        except KeyError:
            kept = self.__dict__["_hash"] = tree_hash(self)
            return kept

    def __getstate__(self):  # a copy in another process salts its strings anew
        return {name: value for name, value in self.__dict__.items() if name != "_hash"}

    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


@_hash_kept
@dataclass(frozen=True)
class ListLit:
    items: tuple


@dataclass(frozen=True)
class Attr:
    """Reference to a machine attribute: other.<name>."""

    name: str


@_hash_kept
@dataclass(frozen=True)
class Unary:
    op: str
    operand: "Expr"


@_hash_kept
@dataclass(frozen=True)
class Binary:
    op: str
    left: "Expr"
    right: "Expr"


@_hash_kept
@dataclass(frozen=True)
class MemberCall:
    """Member(value, list): set membership with exact string equality."""

    value: "Expr"
    items: "Expr"


Expr = Union[Lit, ListLit, Attr, Unary, Binary, MemberCall]


# --------------------------------------------------------------------------
# operators: the one table the lexer, parser and evaluator read

def _numbers(a, b) -> bool:
    return _is_number(a) and _is_number(b)


def _comparable(a, b) -> bool:
    return (_numbers(a, b) or (isinstance(a, str) and isinstance(b, str))
            or (isinstance(a, bool) and isinstance(b, bool)))


#: comparison -> (the operands it is defined on, its result)
_COMPARE = {"==": (_comparable, operator.eq), "!=": (_comparable, operator.ne),
            "<": (_numbers, operator.lt), "<=": (_numbers, operator.le),
            ">": (_numbers, operator.gt), ">=": (_numbers, operator.ge)}

#: unary operator -> (the operand it is defined on, its result)
_UNARY = {"!": (lambda v: isinstance(v, bool), operator.not_), "-": (_is_number, operator.neg)}

#: binary operator -> precedence, loosest first; one level associates to
#: the left, except that comparisons do not chain
_CMP_PREC, _UNARY_PREC = 3, 4
_PREC = {"||": 1, "&&": 2, **dict.fromkeys(_COMPARE, _CMP_PREC)}


# --------------------------------------------------------------------------
# lexer

#: operators and marks, longest first so that `<=` is not read as `<` `=`
_PUNCT = tuple(sorted((*_PREC, *_UNARY, *"={}(),;."), key=len, reverse=True))
_NUMBER = re.compile(r"[0-9]+(\.[0-9]+)?")  # ASCII: str.isdigit() also takes `²` and `٣`


@dataclass(frozen=True)
class Token:
    kind: str  # NAME NUMBER STRING PUNCT EOF
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, line, bol = 0, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            bol = i
            continue
        if c in " \t\r":
            i += 1
            continue
        if c == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        col = i - bol + 1
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\\" and j + 1 < n and text[j + 1] in ('"', "\\"):
                    out.append(text[j + 1])
                    j += 2
                elif text[j] == "\n":
                    raise JdlSyntaxError("unterminated string", line, col)
                else:
                    out.append(text[j])
                    j += 1
            if j >= n:
                raise JdlSyntaxError("unterminated string", line, col)
            tokens.append(Token("STRING", "".join(out), line, col))
            i = j + 1
            continue
        number = _NUMBER.match(text, i)
        if number:
            tokens.append(Token("NUMBER", number.group(), line, col))
            i = number.end()
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalpha() or text[j] in "_0123456789"):
                j += 1
            tokens.append(Token("NAME", text[i:j], line, col))
            i = j
            continue
        for p in _PUNCT:
            if text.startswith(p, i):
                tokens.append(Token("PUNCT", p, line, col))
                i += len(p)
                break
        else:
            raise JdlSyntaxError(f"stray character {c!r}", line, col)
    tokens.append(Token("EOF", "", line, n - bol + 1))
    return tokens


# --------------------------------------------------------------------------
# parser

class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, tok: Token | None = None):
        tok = tok or self.peek()
        raise JdlSyntaxError(message, tok.line, tok.col)

    def accept_punct(self, text: str) -> bool:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text == text:
            self.pos += 1
            return True
        return False

    def expect_punct(self, text: str) -> Token:
        tok = self.peek()
        if tok.kind != "PUNCT" or tok.text != text:
            shown = tok.text or "end of input"
            self.fail(f"expected {text!r}, found {shown!r}", tok)
        return self.next()

    # file := { Name "=" expr ";" }
    def parse_file(self) -> list[tuple[str, Expr, Token]]:
        assignments = []
        while self.peek().kind != "EOF":
            name_tok = self.peek()
            if name_tok.kind != "NAME":
                self.fail(f"expected attribute name, found {name_tok.text!r}")
            self.next()
            self.expect_punct("=")
            expr = self.parse_expr()
            self.expect_punct(";")
            assignments.append((name_tok.text, expr, name_tok))
        return assignments

    def parse_expr(self, floor: int = 1) -> Expr:
        """Precedence climbing over the operators binding at least as tightly
        as `floor`, left to right; only a looser operator follows a comparison,
        so `a < b < c` and `a && b < c < d` both stop at the second `<`."""
        left = self.parse_unary()
        limit = _UNARY_PREC
        while True:
            tok = self.peek()
            prec = _PREC.get(tok.text, 0) if tok.kind == "PUNCT" else 0
            if not floor <= prec < limit:
                return left
            self.next()
            left = Binary(tok.text, left, self.parse_expr(prec + 1))
            limit = prec if prec == _CMP_PREC else prec + 1

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "PUNCT" and tok.text in _UNARY:
            self.next()
            return Unary(tok.text, self.parse_unary())
        return self.parse_primary()

    def parse_primary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "STRING":
            self.next()
            return Lit(tok.text)
        if tok.kind == "NUMBER":
            self.next()
            if "." in tok.text:
                return Lit(float(tok.text))
            return Lit(int(tok.text))
        if self.accept_punct("("):
            inner = self.parse_expr()
            self.expect_punct(")")
            return inner
        if self.accept_punct("{"):
            items = []
            if not self.accept_punct("}"):
                items.append(self.parse_expr())
                while self.accept_punct(","):
                    items.append(self.parse_expr())
                self.expect_punct("}")
            return ListLit(tuple(items))
        if tok.kind == "NAME":
            word = tok.text.lower()
            if word == "true":
                self.next()
                return Lit(True)
            if word == "false":
                self.next()
                return Lit(False)
            if word == "member":
                self.next()
                self.expect_punct("(")
                value = self.parse_expr()
                self.expect_punct(",")
                items = self.parse_expr()
                self.expect_punct(")")
                return MemberCall(value, items)
            if word == "other":
                self.next()
                self.expect_punct(".")
                attr = self.peek()
                if attr.kind != "NAME":
                    self.fail("expected attribute name after 'other.'")
                self.next()
                return Attr(attr.text)
            self.fail(f"unknown identifier {tok.text!r}", tok)
        self.fail(f"expected an expression, found {tok.text or 'end of input'!r}", tok)


def parse_expr(text: str) -> Expr:
    """Parse one bare expression (used by tests and tools)."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    if parser.peek().kind != "EOF":
        parser.fail("trailing input after expression")
    return expr


# --------------------------------------------------------------------------
# evaluation

def evaluate(expr: Expr, env: Mapping[str, Value] | None = None) -> Value:
    """Three-valued evaluation of `expr` against machine attributes `env`."""
    env = env or {}
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Attr):
        if expr.name not in env:
            return UNDEFINED
        value = env[expr.name]
        if isinstance(value, list):
            value = tuple(value)
        return value
    if isinstance(expr, ListLit):
        out = []
        for item in expr.items:
            v = evaluate(item, env)
            if not isinstance(v, str):
                return UNDEFINED
            out.append(v)
        return tuple(out)
    if isinstance(expr, MemberCall):
        needle = evaluate(expr.value, env)
        haystack = evaluate(expr.items, env)
        if not isinstance(needle, str) or not isinstance(haystack, tuple):
            return UNDEFINED
        return needle in haystack
    if isinstance(expr, Unary):
        defined_on, result = _UNARY[expr.op]
        value = evaluate(expr.operand, env)
        return result(value) if defined_on(value) else UNDEFINED
    if isinstance(expr, Binary):
        return _binary(expr, env)
    raise TypeError(f"not an expression: {expr!r}")


def _binary(expr: Binary, env) -> Value:
    left = evaluate(expr.left, env)
    if expr.op in _COMPARE:
        defined_on, result = _COMPARE[expr.op]
        right = evaluate(expr.right, env)
        return result(left, right) if defined_on(left, right) else UNDEFINED
    # a true left arm of `||` and a false one of `&&` decide the result;
    # the right arm is then never evaluated
    decides = expr.op == "||"
    if left is decides:
        return decides
    if not isinstance(left, bool):
        return UNDEFINED
    right = evaluate(expr.right, env)
    return right if isinstance(right, bool) else UNDEFINED


def requirement_satisfied(expr: Expr, env: Mapping[str, Value] | None = None) -> bool:
    """True iff the requirement evaluates to boolean true; UNDEFINED and
    non-boolean results do not match."""
    return evaluate(expr, env) is True


def reads_attribute(expr: Expr, name: str) -> bool:
    """Whether `expr` refers to other.<name> anywhere."""
    if isinstance(expr, Attr):
        return expr.name == name
    if isinstance(expr, tuple):
        return any(reads_attribute(item, name) for item in expr)
    return not isinstance(expr, (Lit, str)) and any(
        reads_attribute(getattr(expr, f.name), name) for f in fields(expr))


# --------------------------------------------------------------------------
# job descriptions

def strip_lfn_prefix(name: str) -> str:
    return name[4:] if name.startswith("lfn:") else name


@dataclass(slots=True)
class JobDescription:
    """Typed view of one description file.

    One field per `_RESERVED` attribute; those without a default are
    required.  `extras` maps each unknown attribute, in declaration
    order, to its expression.  The derived fields, `job_profile` and `input_lfns`,
    are set at construction; a description is never mutated, so they stay
    true."""

    executable: str
    virtual_organisation: str
    requirements: Expr
    rank: Expr | None = None
    arguments: tuple = ()
    std_output: str = "std.out"
    std_error: str = "std.err"
    input_sandbox: tuple = ()
    output_sandbox: tuple = ()
    input_data: tuple = ()
    replica_catalog: str | None = None
    events: int = 1
    job_seed: int = 0
    extras: dict = field(default_factory=dict)  # name -> Expr
    #: workload profile name carried in the executable name
    job_profile: str = field(init=False, repr=False, compare=False)
    input_lfns: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        stem = self.executable.replace("\\", "/").rsplit("/", 1)[-1]
        self.job_profile = stem.rsplit(".", 1)[0] if "." in stem else stem
        self.input_lfns = tuple(map(strip_lfn_prefix, self.input_data))

    def extra_string(self, name: str) -> str | None:
        expr = self.extras.get(name)
        if isinstance(expr, Lit) and isinstance(expr.value, str):
            return expr.value
        return None

    def extra_int(self, name: str) -> int | None:
        expr = self.extras.get(name)
        if isinstance(expr, Lit) and type(expr.value) is int:  # a bool is not an int here
            return expr.value
        return None

    def production_tag(self) -> "tuple[str, int] | None":
        """(dataset, job index) when produced by the production factory."""
        dataset = self.extra_string("Dataset")
        index = self.extra_int("JobIndex")
        if dataset is None or index is None:
            return None
        return dataset, index


# Readers: (attribute name, expression, its name token) -> field value.

def _want_expr(name: str, expr: Expr, tok: Token) -> Expr:
    return expr


def _want_string(name: str, expr: Expr, tok: Token) -> str:
    if isinstance(expr, Lit) and isinstance(expr.value, str):
        return expr.value
    raise JdlError(f"{name} must be a string literal", tok.line, tok.col)


def _want_int(name: str, expr: Expr, tok: Token) -> int:
    literal = expr.operand if isinstance(expr, Unary) else expr
    if isinstance(literal, Lit) and type(literal.value) is int:  # a bool is not an int here
        value = evaluate(expr)
        if value is not UNDEFINED:  # as `!1` is
            return value
    raise JdlError(f"{name} must be an integer literal", tok.line, tok.col)


def _want_events(name: str, expr: Expr, tok: Token) -> int:
    events = _want_int(name, expr, tok)
    if events < 1:
        raise JdlError(f"{name} must be at least 1", tok.line, tok.col)
    return events


def _want_string_list(name: str, expr: Expr, tok: Token) -> tuple:
    if isinstance(expr, Lit) and isinstance(expr.value, str):
        return (expr.value,)
    if isinstance(expr, ListLit):
        out = []
        for item in expr.items:
            if not (isinstance(item, Lit) and isinstance(item.value, str)):
                raise JdlError(f"{name} entries must be string literals", tok.line, tok.col)
            out.append(item.value)
        return tuple(out)
    raise JdlError(f"{name} must be a list of strings", tok.line, tok.col)


#: reserved attribute -> (JobDescription field, reader), in canonical order;
#: the one list of the attributes a description file reserves
_RESERVED = {
    "Executable": ("executable", _want_string),
    "Arguments": ("arguments", _want_string_list),
    "StdOutput": ("std_output", _want_string),
    "StdError": ("std_error", _want_string),
    "InputSandbox": ("input_sandbox", _want_string_list),
    "OutputSandbox": ("output_sandbox", _want_string_list),
    "Requirements": ("requirements", _want_expr),
    "Rank": ("rank", _want_expr),
    "InputData": ("input_data", _want_string_list),
    "ReplicaCatalog": ("replica_catalog", _want_string),
    "VirtualOrganisation": ("virtual_organisation", _want_string),
    "Events": ("events", _want_events),
    "JobSeed": ("job_seed", _want_int),
}

_REQUIRED_FIELDS = {f.name for f in fields(JobDescription)
                    if f.init and f.default is MISSING and f.default_factory is MISSING}

#: the required attributes first, then the rest, each in table order
_READ_ORDER = sorted(_RESERVED.items(), key=lambda item: item[1][0] not in _REQUIRED_FIELDS)


def parse_jdl(text: str) -> JobDescription:
    """Parse and validate one description file."""
    assignments = _Parser(text).parse_file()
    seen: dict[str, tuple[Expr, Token]] = {}
    for name, expr, tok in assignments:
        if name in seen:
            raise JdlSyntaxError(f"duplicate attribute {name}", tok.line, tok.col)
        seen[name] = (expr, tok)

    for name, (field_name, _read) in _READ_ORDER:
        if field_name in _REQUIRED_FIELDS and name not in seen:
            raise MissingAttribute(name)
    values = {field_name: read(name, *seen.pop(name))
              for name, (field_name, read) in _READ_ORDER if name in seen}
    jd = JobDescription(**values, extras={name: expr for name, (expr, _tok) in seen.items()})

    if jd.input_data and jd.replica_catalog is None:
        raise JdlError("InputData requires a ReplicaCatalog")
    return jd
