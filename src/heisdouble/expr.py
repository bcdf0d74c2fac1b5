"""Text grammar for scalars and generator expressions.

    expr   := ['-'] term (('+'|'-') term)*
    term   := factor (('*'|'#'|'/') factor | factor)*   (juxtaposition = '*')
    factor := atom ['^' ['-'] INT]
    atom   := INT | NAME ['[' int (',' int)* ']'] | '(' expr ')'

NAME is a letter run with an optional trailing prime (p').  The letter q is
the scalar variable; '/' is defined only between scalar subexpressions; '#'
multiplies like '*' and lets printed normal forms round-trip.  INT is a run
of decimal digits (str.isdecimal), so a superscript such as '²' is refused.
Parentheses nest at most 100 deep.  Syntax errors carry the 0-based offset
of the offending character.

An AST is a tree of tuples, so it is immutable and hashable.

``evaluate_text`` keeps the Element each text evaluated to in the double's
normal-form memo, a plain dict keyed by the text, so a session that asks
about the same text again skips the tokenizer, the parser and the smash
products.  The memo holds at most NORMAL_FORM_CACHE_SIZE texts and drops
its oldest entry when full; it never holds a failure, so a syntax or
evaluation error is raised again, with its offset, on every call.  It lives
and dies with its double: registering a generator clears it, and a shifted
double starts with an empty one.  HeisenbergDouble.element_str keeps the
text it printed on the memo's element itself, so a repeated normal-order
query is neither evaluated nor printed again; the texts need no table of
their own and go when the memo drops their elements.
"""

from __future__ import annotations

from .hopf import Element
from .scalars import Q, RatFunc, ZERO


class ExprSyntaxError(ValueError):
    def __init__(self, message, offset):
        super().__init__("%s at offset %d" % (message, offset))
        self.offset = offset


class ExprEvalError(ValueError):
    def __init__(self, message, offset=None):
        if offset is not None:
            message = "%s at offset %d" % (message, offset)
        super().__init__(message)
        self.offset = offset


_SYMBOLS = set("+-*/^()[],#")

# Distinct texts whose evaluated Elements each double keeps.
NORMAL_FORM_CACHE_SIZE = 4096

# Deepest parenthesis nesting the parser accepts; each level costs a few
# stack frames, so a bound keeps deep input a syntax error, not a crash.
_MAX_NESTING = 100


def tokenize(text):
    toks = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("int", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            if j < n and text[j] == "'":
                j += 1
            toks.append(("name", text[i:j], i))
            i = j
            continue
        if ch in _SYMBOLS:
            toks.append(("sym", ch, i))
            i += 1
            continue
        raise ExprSyntaxError("unexpected character %r" % ch, i)
    toks.append(("end", None, n))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self):
        return self.toks[self.i]

    def advance(self):
        tok = self.toks[self.i]
        self.i += 1
        return tok

    def expect_sym(self, ch):
        kind, val, pos = self.peek()
        if kind != "sym" or val != ch:
            raise ExprSyntaxError("expected %r" % ch, pos)
        return self.advance()

    def parse(self):
        node = self.parse_expr()
        kind, val, pos = self.peek()
        if kind != "end":
            raise ExprSyntaxError("unexpected %r" % (val,), pos)
        return node

    def parse_expr(self):
        kind, val, pos = self.peek()
        if kind == "sym" and val == "-":
            self.advance()
            first = ("neg", pos, self.parse_term())
        else:
            first = self.parse_term()
        rest = []
        while True:
            kind, val, pos2 = self.peek()
            if kind == "sym" and val in "+-":
                self.advance()
                rest.append((val, self.parse_term()))
            else:
                break
        if not rest:
            return first
        return ("add", pos, first, tuple(rest))

    def parse_term(self):
        pos = self.peek()[2]
        first = self.parse_factor()
        rest = []
        while True:
            kind, val, pos2 = self.peek()
            if kind == "sym" and val in "*#/":
                self.advance()
                rest.append((val, self.parse_factor()))
            elif kind in ("int", "name") or (kind == "sym" and val == "("):
                rest.append(("*", self.parse_factor()))
            else:
                break
        if not rest:
            return first
        return ("chain", pos, first, tuple(rest))

    def parse_factor(self):
        atom = self.parse_atom()
        kind, val, pos = self.peek()
        if kind == "sym" and val == "^":
            self.advance()
            sign = 1
            kind2, val2, pos2 = self.peek()
            if kind2 == "sym" and val2 == "-":
                self.advance()
                sign = -1
                kind2, val2, pos2 = self.peek()
            if kind2 != "int":
                raise ExprSyntaxError("expected an integer exponent", pos2)
            self.advance()
            return ("pow", pos, atom, sign * val2)
        return atom

    def parse_atom(self):
        kind, val, pos = self.advance()
        if kind == "int":
            return ("int", pos, val)
        if kind == "name":
            args = None
            kind2, val2, pos2 = self.peek()
            if kind2 == "sym" and val2 == "[":
                self.advance()
                args = [self.parse_signed_int()]
                while True:
                    kind3, val3, pos3 = self.peek()
                    if kind3 == "sym" and val3 == ",":
                        self.advance()
                        args.append(self.parse_signed_int())
                    else:
                        break
                self.expect_sym("]")
            return ("name", pos, val, tuple(args) if args is not None else None)
        if kind == "sym" and val == "(":
            if self.depth == _MAX_NESTING:
                raise ExprSyntaxError("parentheses nested deeper than %d" % _MAX_NESTING,
                                      pos)
            self.depth += 1
            node = self.parse_expr()
            self.expect_sym(")")
            self.depth -= 1
            return node
        raise ExprSyntaxError("expected a value", pos)

    def parse_signed_int(self):
        kind, val, pos = self.advance()
        sign = 1
        if kind == "sym" and val == "-":
            sign = -1
            kind, val, pos = self.advance()
        if kind != "int":
            raise ExprSyntaxError("expected an integer", pos)
        return sign * val


def parse_expression(text):
    """Parse text into an AST; offsets in errors are 0-based."""
    return _Parser(text).parse()


# -- evaluation inside a double context ---------------------------------


def as_scalar(D, el):
    """The scalar c when el = c * (1 # 1); None otherwise."""
    if el.is_zero:
        return ZERO
    unit_pair = (D.plus.unit_label, D.minus.unit_label)
    if set(el.terms) == {unit_pair}:
        return el.terms[unit_pair]
    return None


def evaluate(D, node):
    """Evaluate an AST to an Element of the context D."""
    from .double import smash_multiply

    kind = node[0]
    if kind == "int":
        return D.unit().scale(RatFunc.from_int(node[2]))
    if kind == "name":
        name, args = node[2], node[3]
        if name == "q" and args is None:
            return D.unit().scale(Q)
        try:
            return D.generator_element(name, args or ())
        except KeyError:
            raise ExprEvalError("unknown generator %r" % name, node[1]) from None
        except ValueError as e:
            raise ExprEvalError(str(e), node[1]) from None
    if kind == "neg":
        return -evaluate(D, node[2])
    if kind == "pow":
        base = evaluate(D, node[2])
        k = node[3]
        s = as_scalar(D, base)
        if s is not None:
            try:
                return D.unit().scale(s ** k)
            except ZeroDivisionError:
                raise ExprEvalError("zero raised to a negative power", node[1]) from None
        if k < 0:
            raise ExprEvalError("negative powers are defined only for scalars",
                                node[1])
        out = D.unit()
        for _ in range(k):
            out = smash_multiply(D, out, base)
        return out
    if kind == "chain":
        acc = evaluate(D, node[2])
        for op, sub in node[3]:
            v = evaluate(D, sub)
            if op == "/":
                s1 = as_scalar(D, acc)
                s2 = as_scalar(D, v)
                if s1 is None or s2 is None:
                    raise ExprEvalError("'/' is defined only between scalars",
                                        node[1])
                if s2.is_zero:
                    raise ExprEvalError("division by zero", node[1])
                acc = D.unit().scale(s1 / s2)
            else:
                acc = smash_multiply(D, acc, v)
        return acc
    if kind == "add":
        acc = evaluate(D, node[2])
        for sign, sub in node[3]:
            v = evaluate(D, sub)
            acc = acc + v if sign == "+" else acc - v
        return acc
    raise ExprEvalError("cannot evaluate node %r" % (kind,))


def evaluate_text(D, text):
    """The Element text denotes in the double D, kept in D's normal-form
    memo under the text: callers share the returned Element and must not
    mutate it.  An error is raised before anything is stored; a full memo
    drops its oldest text."""
    memo = D._normal_forms
    hit = memo.get(text)
    if hit is None:
        hit = evaluate(D, parse_expression(text))
        if len(memo) >= NORMAL_FORM_CACHE_SIZE:
            del memo[next(iter(memo))]
        memo[text] = hit
    return hit


def pure_plus(D, el):
    """The plus-side element when el lies in H+ # 1; None otherwise."""
    mu = D.minus.unit_label
    out = {}
    for (a, x), c in el.terms.items():
        if x is not mu:
            return None
        out[a] = c
    return Element._raw(out)


def pure_minus(D, el):
    """The minus-side element when el lies in 1 # H-; None otherwise."""
    pu = D.plus.unit_label
    out = {}
    for (a, x), c in el.terms.items():
        if a is not pu:
            return None
        out[x] = c
    return Element._raw(out)
