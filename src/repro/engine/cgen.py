"""Lower a kernel function's Python AST to C99.

The masked sweep and the world block are written once, in a
restricted Python over NumPy arrays (``_masked_sweep`` and
``_world_block`` in :mod:`repro.engine.kernels`); the native tier's
C is *derived* from that text by :func:`emit_c`, so the two cannot
drift.  A construct outside the subset — or inside it but read
differently by C — raises :class:`KernelSourceError` naming the line.

Accepted: ``for … in range(…)`` (positive literal step, bound evaluated
once), ``if``/``elif``/``else``, ``break``/``continue``/``pass``, plain
assignment to locals and 1-d/2-d array elements, ``op=`` on locals,
``+ - * / ** & | ^``, ``x % k`` for a positive literal ``k`` (lowered
with Python's sign), unary ``- ~ not``, ``and``/``or`` over Booleans,
single comparisons, conditional expressions, ``math.sqrt``,
``np.uint64(literal)``, ``X.shape[k]``, numeric module constants
(inlined) and ``return a`` / ``return a, b, …`` of integers.

A *signature* lists the C arguments in call order: Python parameter ->
C type (``"const int64_t *"``, ``"uint64_t"``, …), ``"X.shape[k]"`` ->
the type of the explicit length argument that expression reads,
``"return"`` -> the C return type, ``"return[i]"`` -> the out-pointer
for element ``i`` of a tuple return.  Each local gets one C type
(``int64_t``, ``uint64_t`` or ``double``): the widest its assignments
need, inferred from the declared element types.

Does not import ``ctypes``; loaded only when the native library has to
be built.
"""

from __future__ import annotations

import ast
import math
from typing import Dict, List, Mapping, Optional, Tuple


class KernelSourceError(ValueError):
    """Kernel source the emitter will not lower; carries the line."""

    def __init__(self, node: ast.AST, message: str, filename: str) -> None:
        self.lineno = getattr(node, "lineno", 0)
        super().__init__(f"{filename}:{self.lineno}: {message}")


#: Inferred scalar types, narrowest first ("bool" is a 0/1 ``int64_t``);
#: ``uint64_t`` stands apart and never mixes with them.
_RANK = {"bool": 0, "int64_t": 1, "double": 2}
_WIDEN = {"int8_t": "int64_t", "uint8_t": "int64_t", "int64_t": "int64_t",
          "uint64_t": "uint64_t", "double": "double"}
_BINARY = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.Div: "/",
           ast.BitAnd: "&", ast.BitOr: "|", ast.BitXor: "^"}
_COMPARE = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
            ast.Eq: "==", ast.NotEq: "!="}
_SIMPLE = {ast.Break: "break;", ast.Continue: "continue;", ast.Pass: ";"}


def _literal(value) -> Tuple[str, str]:
    if isinstance(value, bool):
        return str(int(value)), "bool"
    if isinstance(value, int):
        return f"INT64_C({value})", "int64_t"
    if math.isnan(value):
        return "NAN", "double"
    if math.isinf(value):
        return ("INFINITY" if value > 0 else "(-INFINITY)"), "double"
    return f"({value.hex()})", "double"  # hex floats round-trip exactly


def _c_name(key: str) -> str:
    """C identifier of a signature key (``"X.shape[0]"`` -> ``X_shape0``)."""
    key = key.replace(".shape[", "_shape").replace("return[", "return_")
    return key.rstrip("]")


def _is_positive_literal(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Constant) and type(node.value) is int and node.value > 0
    )


class _Lowering:
    """One function: infer a C type per local, then emit its statements."""

    def __init__(self, func, signature, constants, filename) -> None:
        self.func, self.signature = func, signature
        self.constants, self.filename = constants, filename
        params = [arg.arg for arg in func.args.args]
        if params != [k for k in signature if k.isidentifier() and k != "return"]:
            raise self.error(func, "parameters do not match the signature table")
        #: array parameter -> declared element type
        self.arrays = {
            p: signature[p].replace("const", "").strip(" *")
            for p in params
            if "*" in signature[p]
        }
        self.types: Dict[str, Optional[str]] = {
            p: _WIDEN[signature[p]] for p in params if p not in self.arrays
        }
        self.loop_vars = set()
        self.active: List[str] = []  # loop variables of the enclosing loops
        self.lines: List[str] = []
        self.loops = 0

    def error(self, node, message) -> KernelSourceError:
        return KernelSourceError(node, message, self.filename)

    def join(self, a: Optional[str], b: str, node) -> str:
        if a is None or a == b:
            return b
        if "uint64_t" in (a, b):
            raise self.error(node, f"{a} mixed with {b} (numpy would promote)")
        return a if _RANK[a] > _RANK[b] else b

    def infer(self) -> List[str]:
        """Type every local (least fixpoint); returns their names."""
        assigned: Dict[str, List[ast.expr]] = {}
        for node in ast.walk(self.func):
            if isinstance(node, ast.For) and isinstance(node.target, ast.Name):
                self.loop_vars.add(node.target.id)
            elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
                assigned.setdefault(node.targets[0].id, []).append(node.value)
            elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
                assigned.setdefault(node.target.id, []).append(self.augmented(node))
        for name, values in assigned.items():
            if name in self.types or name in self.arrays or name in self.loop_vars:
                raise self.error(
                    values[0], f"assignment to parameter or loop variable {name!r}"
                )
            self.types[name] = None
        self.types.update(dict.fromkeys(self.loop_vars, "int64_t"))
        self.active = list(self.loop_vars)  # scoping is the emission pass's check
        changed = True
        while changed:
            changed = False
            for name, values in assigned.items():
                joined = self.types[name]
                for value in values:
                    try:
                        joined = self.join(joined, self.expr(value)[1], value)
                    except KernelSourceError:
                        pass  # not typeable yet; the emission pass re-checks
                changed |= joined != self.types[name]
                self.types[name] = joined
        self.active = []
        return sorted(assigned) + sorted(self.loop_vars)

    @staticmethod
    def augmented(node: ast.AugAssign) -> ast.BinOp:
        """``x op= y`` on a local as the expression ``x op y`` (same checks)."""
        load = ast.copy_location(ast.Name(node.target.id, ast.Load()), node)
        return ast.copy_location(ast.BinOp(load, node.op, node.value), node)

    # -- expressions: (C text, inferred type) ---------------------------

    def expr(self, node: ast.expr) -> Tuple[str, str]:
        method = getattr(self, "expr_" + type(node).__name__, None)
        if method is None:
            raise self.error(node, f"unsupported expression {type(node).__name__}")
        return method(node)

    def expr_Constant(self, node):
        if not isinstance(node.value, (bool, int, float)):
            raise self.error(node, f"unsupported constant {node.value!r}")
        return _literal(node.value)

    def expr_Name(self, node):
        name = node.id
        if name in self.loop_vars and name not in self.active:
            raise self.error(
                node, f"loop variable {name!r} read outside its loop "
                "(C leaves it at the bound, Python at the last item)"
            )
        if name in self.types:
            if self.types[name] is None:
                raise self.error(node, f"cannot infer a C type for {name!r}")
            return name, self.types[name]
        value = self.constants.get(name)
        if name in self.arrays or type(value) not in (bool, int, float):
            raise self.error(node, f"{name!r} is not a scalar or numeric constant")
        return _literal(value)

    def index(self, node) -> str:
        text, kind = self.expr(node)
        if kind != "int64_t":
            raise self.error(node, "index or range bound is not an int64 value")
        return text

    def element(self, node: ast.Subscript) -> Tuple[str, str]:
        """C lvalue and declared element type of ``X[i]`` / ``X[i, j]``."""
        if not (isinstance(node.value, ast.Name) and node.value.id in self.arrays):
            raise self.error(node, "subscript of something not an array parameter")
        name = node.value.id
        if not isinstance(node.slice, ast.Tuple):
            return f"{name}[{self.index(node.slice)}]", self.arrays[name]
        stride = f"{name}.shape[1]"
        if len(node.slice.elts) != 2 or stride not in self.signature:
            raise self.error(node, f"a 2-d subscript needs {stride!r} in the signature")
        row, col = (self.index(e) for e in node.slice.elts)
        return f"{name}[{row} * {_c_name(stride)} + {col}]", self.arrays[name]

    def expr_Subscript(self, node):
        if isinstance(node.value, ast.Attribute) and node.value.attr == "shape":
            key = ast.unparse(node)
            if key not in self.signature:
                raise self.error(node, f"{key} is not declared in the signature")
            return _c_name(key), "int64_t"
        text, ctype = self.element(node)
        return text, _WIDEN[ctype]

    def expr_BinOp(self, node):
        (left, lt), (right, rt) = self.expr(node.left), self.expr(node.right)
        op = type(node.op)
        if op in _BINARY:
            kind = self.join(lt, rt, node)
            kind = "int64_t" if kind == "bool" else kind
            if op is ast.Div and kind != "double":
                raise self.error(node, "'/' on integers is true division in Python")
            if _BINARY[op] in "&|^" and kind == "double":
                raise self.error(node, "bitwise operator on a float")
            return f"({left} {_BINARY[op]} {right})", kind
        if op is ast.Pow and lt == "double" and rt in ("int64_t", "double"):
            return f"pow({left}, (double){right})", "double"
        if op is ast.Mod and lt == "int64_t" and _is_positive_literal(node.right):
            # C's sign follows the dividend, Python's the divisor.
            return f"((({left} % {right}) + {right}) % {right})", "int64_t"
        raise self.error(
            node, f"unsupported {op.__name__} on {lt}, {rt} ('**' needs a float "
            "base, '%' an int64 and a positive literal; '//' floors in Python)"
        )

    def expr_UnaryOp(self, node):
        text, kind = self.expr(node.operand)
        if isinstance(node.op, ast.Not) and kind == "bool":
            return f"(!{text})", "bool"
        if isinstance(node.op, ast.USub) and kind in ("int64_t", "double"):
            return f"(-{text})", kind
        if isinstance(node.op, ast.Invert) and kind in ("int64_t", "uint64_t"):
            return f"(~{text})", kind
        raise self.error(node, f"unsupported unary {type(node.op).__name__} on {kind}")

    def expr_BoolOp(self, node):
        parts = []
        for value in node.values:
            text, kind = self.expr(value)
            if kind != "bool":
                raise self.error(
                    value, "and/or operand is not Boolean "
                    "(Python returns the operand, C returns 0/1)"
                )
            parts.append(text)
        joiner = " && " if isinstance(node.op, ast.And) else " || "
        return "(" + joiner.join(parts) + ")", "bool"

    def expr_Compare(self, node):
        symbol = _COMPARE.get(type(node.ops[0]))
        if len(node.ops) != 1 or symbol is None:
            raise self.error(node, "chained or unsupported comparison")
        (left, lt), (right, rt) = self.expr(node.left), self.expr(node.comparators[0])
        self.join(lt, rt, node)  # uint64 against a signed value: rejected
        return f"({left} {symbol} {right})", "bool"

    def expr_IfExp(self, node):
        (body, bt), (orelse, ot) = self.expr(node.body), self.expr(node.orelse)
        test = self.expr(node.test)[0]
        return f"({test} ? {body} : {orelse})", self.join(bt, ot, node)

    def expr_Call(self, node):
        call = ast.unparse(node)
        if len(node.args) == 1 and not node.keywords:
            arg = node.args[0]
            if call.startswith("math.sqrt("):
                text, kind = self.expr(arg)
                if kind == "double":
                    return f"sqrt({text})", "double"
            elif call.startswith("np.uint64(") and (
                _is_positive_literal(arg) or call == "np.uint64(0)"
            ):
                return f"UINT64_C({arg.value})", "uint64_t"
        raise self.error(node, f"unsupported call {call}")

    # -- statements ------------------------------------------------------

    def emit(self, depth: int, text: str) -> None:
        self.lines.append("    " * depth + text)

    def body(self, statements, depth: int) -> None:
        for node in statements:
            if type(node) in _SIMPLE:
                self.emit(depth, _SIMPLE[type(node)])
                continue
            method = getattr(self, "stmt_" + type(node).__name__, None)
            if method is None:
                raise self.error(node, f"unsupported statement {type(node).__name__}")
            method(node, depth)

    def store(self, target, value: ast.expr, depth: int) -> None:
        text, kind = self.expr(value)
        if isinstance(target, ast.Name):
            self.join(kind, self.types[target.id], target)  # uint64 never mixes
            self.emit(depth, f"{target.id} = {text};")
        elif isinstance(target, ast.Subscript):
            lvalue, ctype = self.element(target)
            self.join(kind, _WIDEN[ctype], target)
            if kind == "double" and ctype != "double":
                raise self.error(target, f"float stored into {ctype} array")
            self.emit(depth, f"{lvalue} = ({ctype}){text};")
        else:
            raise self.error(target, "unsupported assignment target")

    def stmt_Assign(self, node, depth):
        if len(node.targets) != 1:
            raise self.error(node, "chained assignment")
        self.store(node.targets[0], node.value, depth)

    def stmt_AugAssign(self, node, depth):
        if not isinstance(node.target, ast.Name):
            raise self.error(node, "augmented assignment to an array element")
        self.store(node.target, self.augmented(node), depth)

    def stmt_For(self, node, depth):
        call = node.iter
        if node.orelse or not isinstance(node.target, ast.Name) or not (
            isinstance(call, ast.Call)
            and ast.unparse(call.func) == "range"
            and not call.keywords
            and 1 <= len(call.args) <= 3
            and (len(call.args) < 3 or _is_positive_literal(call.args[2]))
        ):
            raise self.error(
                node, "only 'for name in range(...)' with a positive literal "
                "step and no else"
            )
        bounds = [self.index(arg) for arg in call.args]
        start = bounds[0] if len(bounds) > 1 else "INT64_C(0)"
        step = bounds[2] if len(bounds) > 2 else "INT64_C(1)"
        var, stop = node.target.id, f"range_stop_{self.loops}"
        self.loops += 1
        self.emit(depth, f"const int64_t {stop} = {bounds[min(len(bounds), 2) - 1]};")
        self.emit(depth, f"for ({var} = {start}; {var} < {stop}; {var} += {step}) {{")
        self.active.append(var)
        self.body(node.body, depth + 1)
        self.active.pop()
        self.emit(depth, "}")

    def stmt_If(self, node, depth):
        self.emit(depth, f"if ({self.expr(node.test)[0]}) {{")
        self.body(node.body, depth + 1)
        if node.orelse:
            self.emit(depth, "} else {")
            self.body(node.orelse, depth + 1)
        self.emit(depth, "}")

    def stmt_Return(self, node, depth):
        values = node.value.elts if isinstance(node.value, ast.Tuple) else [node.value]
        outs = [_c_name(k) for k in self.signature if k.startswith("return[")]
        if node.value is None or len(values) != 1 + len(outs):
            raise self.error(node, "return arity does not match the signature")
        texts = []
        for value in values:
            text, kind = self.expr(value)
            if kind not in ("bool", "int64_t"):
                raise self.error(value, "only integer return values are supported")
            texts.append(text)
        for out, text in zip(outs, texts[1:]):
            self.emit(depth, f"*{out} = {text};")
        self.emit(depth, f"return {texts[0]};")

    def render(self) -> str:
        names = self.infer()
        has_docstring = ast.get_docstring(self.func) is not None
        self.body(self.func.body[has_docstring:], 1)
        arguments = ",\n    ".join(
            f"{ctype} {_c_name(key)}".replace("* ", "*")
            for key, ctype in self.signature.items()
            if key != "return"
        )
        # Zero-initialised: a read Python would reject as unbound is at
        # least deterministic in C.
        declarations = [
            f"    {self.types[n] if self.types[n] != 'bool' else 'int64_t'} {n} = 0;"
            for n in names
        ]
        head = f"{self.signature['return']} {self.func.name.lstrip('_')}({arguments})"
        return "\n".join([head, "{", *declarations, *self.lines, "}", ""])


def emit_c(
    source: str,
    signatures: Mapping[str, Mapping[str, str]],
    constants: Mapping[str, object],
    filename: str = "<kernel>",
) -> str:
    """One C99 translation unit: a function per entry of ``signatures``.

    ``source`` is Python text defining, at top level, every function
    ``signatures`` names; each becomes a C function of the same name
    without its leading underscores.
    """
    tree = ast.parse(source, filename)
    functions = {n.name: n for n in tree.body if isinstance(n, ast.FunctionDef)}
    parts = ["#include <math.h>", "#include <stdint.h>", ""]
    for name, signature in signatures.items():
        if name not in functions:
            raise KernelSourceError(tree, f"no function {name!r}", filename)
        lowering = _Lowering(functions[name], signature, constants, filename)
        parts.append(lowering.render())
    return "\n".join(parts)
