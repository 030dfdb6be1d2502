"""Compiled kernel tiers: the three-valued cone sweep and the world block.

The masked evaluator's hot loop — ``push(var, value)`` walking the
variable's cone and recomputing dirty vertices — is pure per-vertex
dispatch over flat arrays (:class:`repro.engine.masked.MaskedEvaluator`).
This module compiles that loop out of Python:

* :func:`_masked_sweep` is the single-source kernel: one plain-Python
  function over NumPy arrays, written in the subset
  :mod:`repro.engine.cgen` lowers — it is source, never a tier of its
  own;
* the ``"native"`` tier's C is *generated* from that function
  (``cgen`` lowers its AST; nothing is hand-mirrored, so the two cannot
  drift), built with the system C compiler into a shared library cached
  on disk;
* :class:`KernelMaskedEvaluator` swaps the evaluator's columns to
  shared NumPy buffers the kernel mutates in place, with trail frames
  kept as arrays and restored vectorized on ``pop()``.

Every tier must be *bit-identical* to the Python evaluator: the same
three-valued states, the same interval arithmetic (Python ``min``/
``max`` fold order, IEEE division, ``pow``), the same trail entries in
the same order — the property suite drives random walks against the
Python oracle, and :func:`get_backend` self-validates each backend on a
canned network before handing it out (falling back on any mismatch).

Tier selection (:func:`make_masked_evaluator`, reachable from every
scheme via ``make_evaluator(..., kernel=...)`` and ``repro cluster
--kernel``): ``"auto"`` prefers native, then pure Python; naming an
unavailable tier falls back down the same ladder.  The ``REPRO_KERNEL``
environment variable overrides the default (CI uses
``REPRO_KERNEL=python`` for the fallback leg).  The tier never depends
on the network: :func:`repro.engine.masked.masked_program` lowers
vector-valued c-values to scalar lanes and negative ``POW`` exponents to
``INV(POW)``, so every network — k-medoids and k-means over feature
vectors included — is a program over the scalar columns the kernels
sweep.

The shared library also carries ``world_block``, generated the same way
from :func:`_world_block`: the lowered program run two-valued, 64 worlds
per ``uint64`` word, for ``naive`` and ``montecarlo``
(:class:`WorldBlockEvaluator`).  The dense NumPy sweep of
:mod:`repro.engine.bulk` is its fallback and its validation oracle.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shlex
import subprocess
import tempfile
import warnings
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..compile.partial import B_FALSE, B_TRUE, B_UNKNOWN, NumState
from ..network.nodes import EventNetwork, Kind
from .masked import _TAG_BOOL, MaskedEvaluator, MaskedProgram, masked_program

_K_TRUE = int(Kind.TRUE)
_K_FALSE = int(Kind.FALSE)
_K_VAR = int(Kind.VAR)
_K_NOT = int(Kind.NOT)
_K_AND = int(Kind.AND)
_K_OR = int(Kind.OR)
_K_ATOM = int(Kind.ATOM)
_K_GUARD = int(Kind.GUARD)
_K_COND = int(Kind.COND)
_K_SUM = int(Kind.SUM)
_K_PROD = int(Kind.PROD)
_K_INV = int(Kind.INV)
_K_POW = int(Kind.POW)
_K_DIST = int(Kind.DIST)
_K_LOOP_IN = int(Kind.LOOP_IN)

_NAN = float("nan")
_INF = float("inf")

#: Public kernel tier names, in fallback order (``auto`` resolves to
#: the first available compiled tier; ``python`` is the original
#: :class:`MaskedEvaluator`).
KERNEL_NAMES = ("auto", "native", "python")

#: Why a backend was rejected, by name (introspection/debugging only).
BACKEND_ERRORS: Dict[str, str] = {}

#: How ``result.extra["kernel_tier"]`` encodes the tier that ran
#: (``extra`` is a float dict; mirrors ``_EXECUTION_CODES``).  (1.0,
#: 3.0 and 4.0 were tiers that no longer exist; the others keep their
#: codes.)
KERNEL_TIER_CODES: Dict[str, float] = {
    "python": 0.0,
    "native": 2.0,
}


def record_kernel_tier(extra: Dict[str, object], evaluator) -> None:
    """Note in a result's ``extra`` which tier drove ``evaluator``.

    A no-op for evaluators without a tier (the scalar oracles).
    """
    tier = getattr(evaluator, "kernel", None)
    if tier is not None:
        extra["kernel_tier"] = KERNEL_TIER_CODES.get(tier, -1.0)


# ----------------------------------------------------------------------
# The single-source sweep kernel (plain Python over NumPy arrays).
#
# This function is the text the native tier's C is generated from, so
# edit it alone, inside the subset repro.engine.cgen lists: it rejects —
# with the line — anything else or anything C would read differently
# (``//``, chained comparisons, ``%`` by a non-literal, ...).  Mind the
# exact Python
# semantics being reproduced (min/max fold order, NaN comparisons, pow):
# MaskedEvaluator._compute_* in repro.engine.masked stays the
# independent oracle every built tier is validated against.
# ----------------------------------------------------------------------


def _masked_sweep(
    seeds,
    cone,
    assign,
    kinds,
    var_index,
    atom_op,
    pow_exp,
    metric,
    child_off,
    child_idx,
    par_off,
    par_idx,
    is_bool,
    guard_val,
    b,
    lo,
    hi,
    mu,
    md,
    resolved,
    dirty,
    t_tag,
    t_vid,
    t_b,
    t_lo,
    t_hi,
    t_mu,
    t_md,
):
    """One cone sweep; returns ``(trail entries written, evals)``."""
    pending = 0
    for i in range(seeds.shape[0]):
        s = seeds[i]
        if dirty[s] == 0:
            dirty[s] = 1
            pending += 1
    n_trail = 0
    evals = 0
    for ci in range(cone.shape[0]):
        vid = cone[ci]
        if dirty[vid] == 0:
            continue
        dirty[vid] = 0
        pending -= 1
        if resolved[vid] == 0:
            evals += 1
            changed = False
            kind = kinds[vid]
            c0 = child_off[vid]
            c1 = child_off[vid + 1]
            if is_bool[vid] != 0:
                # ---- Boolean vertex (MaskedEvaluator._compute_bool) --
                new = B_UNKNOWN
                if kind == _K_VAR:
                    a = assign[var_index[vid]]
                    if a < 0:
                        new = B_UNKNOWN
                    elif a == 0:
                        new = B_FALSE
                    else:
                        new = B_TRUE
                elif kind == _K_AND:
                    new = B_TRUE
                    for e in range(c0, c1):
                        v = b[child_idx[e]]
                        if v == B_FALSE:
                            new = B_FALSE
                            break
                        if v == B_UNKNOWN:
                            new = B_UNKNOWN
                elif kind == _K_OR:
                    new = B_FALSE
                    for e in range(c0, c1):
                        v = b[child_idx[e]]
                        if v == B_TRUE:
                            new = B_TRUE
                            break
                        if v == B_UNKNOWN:
                            new = B_UNKNOWN
                elif kind == _K_NOT:
                    v = b[child_idx[c0]]
                    if v == B_UNKNOWN:
                        new = B_UNKNOWN
                    elif v == B_FALSE:
                        new = B_TRUE
                    else:
                        new = B_FALSE
                elif kind == _K_ATOM:
                    # Interleaved lane pairs (one pair for scalars).
                    op = atom_op[vid]
                    a_md = 1
                    a_mu = 0
                    always = True
                    never = True
                    above = True
                    for e in range(c0, c1, 2):
                        lft = child_idx[e]
                        rgt = child_idx[e + 1]
                        if md[lft] == 0 or md[rgt] == 0:
                            a_md = 0
                            break
                        if mu[lft] != 0 or mu[rgt] != 0:
                            a_mu = 1
                        llo = lo[lft]
                        lhi = hi[lft]
                        rlo = lo[rgt]
                        rhi = hi[rgt]
                        if op == 0:  # <=
                            always = always and lhi <= rlo
                            never = never and rhi < llo
                        elif op == 1:  # <
                            always = always and lhi < rlo
                            never = never and rhi <= llo
                        elif op == 2:  # >=
                            always = always and rhi <= llo
                            never = never and lhi < rlo
                        elif op == 3:  # >
                            always = always and rhi < llo
                            never = never and lhi <= rlo
                        else:  # ==
                            always = (
                                always
                                and llo == lhi
                                and rlo == rhi
                                and llo == rlo
                            )
                            never = never and lhi < rlo
                            above = above and rhi < llo
                    if op == 4:
                        always = always and a_mu == 0
                        never = never or above
                    if a_md == 0 or always:
                        new = B_TRUE
                    elif never and a_mu == 0:
                        new = B_FALSE
                    else:
                        new = B_UNKNOWN
                elif kind == _K_TRUE:
                    new = B_TRUE
                elif kind == _K_FALSE:
                    new = B_FALSE
                else:  # LOOP_IN copy
                    new = b[child_idx[c0]]
                old = b[vid]
                if new == old:
                    if new != B_UNKNOWN:
                        # Same value, newly stable: resolve, don't propagate.
                        t_tag[n_trail] = 0
                        t_vid[n_trail] = vid
                        t_b[n_trail] = old
                        n_trail += 1
                        resolved[vid] = 1
                else:
                    t_tag[n_trail] = 0
                    t_vid[n_trail] = vid
                    t_b[n_trail] = old
                    n_trail += 1
                    b[vid] = new
                    if new != B_UNKNOWN:
                        resolved[vid] = 1
                    changed = True
            else:
                # ---- scalar numeric vertex (_compute_num_scalar) ----
                nlo = _NAN
                nhi = _NAN
                nmu = 1
                nmd = 0
                if kind == _K_GUARD:
                    ev = b[child_idx[c0]]
                    g = guard_val[vid]
                    if ev == B_TRUE:
                        nlo = g
                        nhi = g
                        nmu = 0
                        nmd = 1
                    elif ev == B_FALSE:
                        pass  # undefined
                    else:
                        nlo = g
                        nhi = g
                        nmu = 1
                        nmd = 1
                elif kind == _K_COND:
                    ev = b[child_idx[c0]]
                    ch = child_idx[c0 + 1]
                    if ev == B_FALSE or md[ch] == 0:
                        pass  # undefined
                    elif ev == B_TRUE:
                        nlo = lo[ch]
                        nhi = hi[ch]
                        nmu = mu[ch]
                        nmd = 1
                    else:
                        nlo = lo[ch]
                        nhi = hi[ch]
                        nmu = 1
                        nmd = 1
                elif kind == _K_SUM:
                    # ``u`` is the identity: accumulator starts undefined.
                    a_lo = _NAN
                    a_hi = _NAN
                    a_mu = 1
                    a_md = 0
                    for e in range(c0, c1):
                        ch = child_idx[e]
                        c_md = md[ch]
                        c_mu = mu[ch]
                        c_lo = lo[ch]
                        c_hi = hi[ch]
                        x_lo = 0.0
                        x_hi = 0.0
                        has = 0
                        x_md = 0
                        if a_md != 0 and c_md != 0:
                            x_lo = a_lo + c_lo
                            x_hi = a_hi + c_hi
                            has = 1
                            x_md = 1
                        if a_md != 0 and c_mu != 0:
                            if has == 0:
                                x_lo = a_lo
                                x_hi = a_hi
                                has = 1
                            else:
                                if a_lo < x_lo:
                                    x_lo = a_lo
                                if a_hi > x_hi:
                                    x_hi = a_hi
                            x_md = 1
                        if c_md != 0 and a_mu != 0:
                            if has == 0:
                                x_lo = c_lo
                                x_hi = c_hi
                                has = 1
                            else:
                                if c_lo < x_lo:
                                    x_lo = c_lo
                                if c_hi > x_hi:
                                    x_hi = c_hi
                            x_md = 1
                        if a_mu != 0 and c_mu != 0:
                            a_mu = 1
                        else:
                            a_mu = 0
                        if x_md != 0:
                            a_lo = x_lo
                            a_hi = x_hi
                            a_md = 1
                        else:
                            a_lo = _NAN
                            a_hi = _NAN
                            a_md = 0
                            a_mu = 1  # fully undefined again
                    if a_md != 0:
                        nlo = a_lo
                        nhi = a_hi
                        nmu = a_mu
                        nmd = 1
                elif kind == _K_PROD:
                    a_lo = 1.0
                    a_hi = 1.0
                    a_mu = 0
                    a_md = 1
                    for e in range(c0, c1):
                        ch = child_idx[e]
                        if mu[ch] != 0:
                            a_mu = 1
                        if md[ch] == 0:
                            a_md = 0  # u annihilates for good
                            break
                        c_lo = lo[ch]
                        c_hi = hi[ch]
                        p1 = a_lo * c_lo
                        p2 = a_lo * c_hi
                        p3 = a_hi * c_lo
                        p4 = a_hi * c_hi
                        m = p1
                        if p2 < m:
                            m = p2
                        if p3 < m:
                            m = p3
                        if p4 < m:
                            m = p4
                        q = p1
                        if p2 > q:
                            q = p2
                        if p3 > q:
                            q = p3
                        if p4 > q:
                            q = p4
                        a_lo = m
                        a_hi = q
                    if a_md != 0:
                        nlo = a_lo
                        nhi = a_hi
                        nmu = a_mu
                        nmd = 1
                elif kind == _K_INV:
                    ch = child_idx[c0]
                    if md[ch] != 0:
                        c_lo = lo[ch]
                        c_hi = hi[ch]
                        if c_lo > 0 or c_hi < 0:
                            nlo = 1.0 / c_hi
                            nhi = 1.0 / c_lo
                            nmu = mu[ch]
                            nmd = 1
                        elif c_lo == 0 and c_hi == 0:
                            pass  # undefined
                        elif c_lo == 0:
                            nlo = 1.0 / c_hi
                            nhi = _INF
                            nmu = 1
                            nmd = 1
                        elif c_hi == 0:
                            nlo = -_INF
                            nhi = 1.0 / c_lo
                            nmu = 1
                            nmd = 1
                        else:
                            nlo = -_INF
                            nhi = _INF
                            nmu = 1
                            nmd = 1
                elif kind == _K_POW:
                    exp = pow_exp[vid]  # >= 0: negative lowered to INV
                    ch = child_idx[c0]
                    if md[ch] != 0:
                        c_lo = lo[ch]
                        c_hi = hi[ch]
                        if exp % 2 == 1 or c_lo >= 0.0:
                            nlo = c_lo**exp
                            nhi = c_hi**exp
                        else:
                            abs_lo = -c_lo if c_lo < 0.0 else c_lo
                            abs_hi = -c_hi if c_hi < 0.0 else c_hi
                            mn = abs_lo if abs_lo <= abs_hi else abs_hi
                            mx = abs_lo if abs_lo >= abs_hi else abs_hi
                            if c_lo <= 0.0 and 0.0 <= c_hi:
                                nlo = 0.0
                            else:
                                nlo = mn**exp
                            nhi = mx**exp
                        nmu = mu[ch]
                        nmd = 1
                elif kind == _K_DIST:
                    # Interleaved lane pairs, reduced left to right; one
                    # pair (scalar operands) is the lane itself, bit for bit.
                    wide = c1 - c0 > 2
                    d_mu = 0
                    d_md = 1
                    acc_lo = 0.0
                    acc_hi = 0.0
                    for e in range(c0, c1, 2):
                        lft = child_idx[e]
                        rgt = child_idx[e + 1]
                        if mu[lft] != 0 or mu[rgt] != 0:
                            d_mu = 1
                        if md[lft] == 0 or md[rgt] == 0:
                            d_md = 0
                            break
                        diff_lo = lo[lft] - hi[rgt]
                        diff_hi = hi[lft] - lo[rgt]
                        a1 = -diff_lo if diff_lo < 0.0 else diff_lo
                        a2 = -diff_hi if diff_hi < 0.0 else diff_hi
                        if diff_lo <= 0.0 and 0.0 <= diff_hi:
                            abs_lo = 0.0
                        else:
                            abs_lo = a1 if a1 <= a2 else a2
                        abs_hi = a1 if a1 >= a2 else a2
                        # sqeuclidean; euclidean == manhattan on scalars
                        if metric[vid] == 1 or (wide and metric[vid] == 0):
                            abs_lo = abs_lo * abs_lo
                            abs_hi = abs_hi * abs_hi
                        if wide:
                            acc_lo += abs_lo
                            acc_hi += abs_hi
                        else:
                            acc_lo = abs_lo
                            acc_hi = abs_hi
                    if d_md != 0:
                        if wide and metric[vid] == 0:
                            acc_lo = math.sqrt(acc_lo)
                            acc_hi = math.sqrt(acc_hi)
                        nlo = acc_lo
                        nhi = acc_hi
                        nmu = d_mu
                        nmd = 1
                else:  # LOOP_IN copy
                    ch = child_idx[c0]
                    nlo = lo[ch]
                    nhi = hi[ch]
                    nmu = mu[ch]
                    nmd = md[ch]
                # ---- write-back (_write_num_scalar) -----------------
                res = (nmd == 0 and nmu != 0) or (
                    nmd != 0 and nmu == 0 and nlo == nhi
                )
                o_lo = lo[vid]
                o_hi = hi[vid]
                o_mu = mu[vid]
                o_md = md[vid]
                unchanged = (
                    (o_md != 0) == (nmd != 0)
                    and (o_mu != 0) == (nmu != 0)
                    and (nmd == 0 or (o_lo == nlo and o_hi == nhi))
                )
                if unchanged:
                    if res:
                        t_tag[n_trail] = 1
                        t_vid[n_trail] = vid
                        t_lo[n_trail] = o_lo
                        t_hi[n_trail] = o_hi
                        t_mu[n_trail] = o_mu
                        t_md[n_trail] = o_md
                        n_trail += 1
                        resolved[vid] = 1
                else:
                    t_tag[n_trail] = 1
                    t_vid[n_trail] = vid
                    t_lo[n_trail] = o_lo
                    t_hi[n_trail] = o_hi
                    t_mu[n_trail] = o_mu
                    t_md[n_trail] = o_md
                    n_trail += 1
                    lo[vid] = nlo
                    hi[vid] = nhi
                    mu[vid] = nmu
                    md[vid] = nmd
                    if res:
                        resolved[vid] = 1
                    changed = True
            if changed:
                for e in range(par_off[vid], par_off[vid + 1]):
                    p = par_idx[e]
                    if dirty[p] == 0:
                        dirty[p] = 1
                        pending += 1
        if pending == 0:
            break
    return n_trail, evals


def _world_block(
    var_words,
    roots,
    out,
    kinds,
    var_index,
    atom_op,
    pow_exp,
    metric,
    child_off,
    child_idx,
    is_bool,
    guard_val,
    bit,
    sched,
    strip_of,
    word,
    strips,
):
    """The program run two-valued over 64-world blocks; returns the rows swept.

    ``var_words[x, k]`` holds variable ``x`` in worlds ``64k .. 64k + 63``
    (world ``64k + j`` is ``bit[j] == 1 << j``) and ``out[r * blocks + k]``
    receives root ``r``'s word.  A Boolean row is one word of ``word``; a
    numeric row's word is where it is defined and its values are a strip
    of 64 doubles in ``strips`` (``rows * 64`` of them), written only in
    blocks where the row is defined somewhere.  ``strip_of`` must arrive
    zeroed.
    """
    n_blocks = var_words.shape[1]
    n_roots = roots.shape[0]
    rows = kinds.shape[0]
    zero = np.uint64(0)
    ones = ~zero
    # Mark the rows the roots read: ids are topological, so one reverse pass.
    for r in range(n_roots):
        strip_of[roots[r]] = 1
    for k in range(rows):
        v = rows - 1 - k
        if strip_of[v] != 0:
            for e in range(child_off[v], child_off[v + 1]):
                strip_of[child_idx[e]] = 1
    # Schedule them.  A numeric row owns strip ``row``, except that COND
    # and LOOP_IN read their operand's strip instead of copying it; a
    # GUARD strip is its constant, written once for every block.
    n_live = 0
    for row in range(rows):
        if strip_of[row] != 0:
            sched[n_live] = row
            n_live += 1
            kind = kinds[row]
            c0 = child_off[row]
            strip_of[row] = row
            if kind == _K_COND:
                strip_of[row] = strip_of[child_idx[c0 + 1]]
            elif kind == _K_LOOP_IN:
                strip_of[row] = strip_of[child_idx[c0]]
            elif kind == _K_GUARD:
                g = guard_val[row]
                for j in range(64):
                    strips[row * 64 + j] = g
    for blk in range(n_blocks):
        for k in range(n_live):
            v = sched[k]
            kind = kinds[v]
            c0 = child_off[v]
            c1 = child_off[v + 1]
            if is_bool[v] != 0:
                if kind == _K_VAR:
                    w = var_words[var_index[v], blk]
                elif kind == _K_AND:
                    w = ones
                    for e in range(c0, c1):
                        w = w & word[child_idx[e]]
                elif kind == _K_OR:
                    w = zero
                    for e in range(c0, c1):
                        w = w | word[child_idx[e]]
                elif kind == _K_NOT:
                    w = ~word[child_idx[c0]]
                elif kind == _K_ATOM:
                    # Interleaved lane pairs; true where a side is undefined.
                    defined = ones
                    for e in range(c0, c1):
                        defined = defined & word[child_idx[e]]
                    w = ones
                    if defined != zero:
                        op = atom_op[v]
                        for e in range(c0, c1, 2):
                            ls = strip_of[child_idx[e]] * 64
                            rs = strip_of[child_idx[e + 1]] * 64
                            m = zero
                            if op == 0:  # <=
                                for j in range(64):
                                    m = m | (bit[j] if strips[ls + j] <= strips[rs + j] else zero)
                            elif op == 1:  # <
                                for j in range(64):
                                    m = m | (bit[j] if strips[ls + j] < strips[rs + j] else zero)
                            elif op == 2:  # >=
                                for j in range(64):
                                    m = m | (bit[j] if strips[ls + j] >= strips[rs + j] else zero)
                            elif op == 3:  # >
                                for j in range(64):
                                    m = m | (bit[j] if strips[ls + j] > strips[rs + j] else zero)
                            else:  # ==
                                for j in range(64):
                                    m = m | (bit[j] if strips[ls + j] == strips[rs + j] else zero)
                            w = w & m
                    w = w | ~defined
                elif kind == _K_TRUE:
                    w = ones
                elif kind == _K_FALSE:
                    w = zero
                else:  # LOOP_IN copy
                    w = word[child_idx[c0]]
                word[v] = w
            else:
                s = strip_of[v] * 64
                if kind == _K_COND:
                    w = word[child_idx[c0]] & word[child_idx[c0 + 1]]
                elif kind == _K_SUM:
                    # ``u`` is the identity: undefined lanes add nothing.
                    w = zero
                    for j in range(64):
                        strips[s + j] = 0.0
                    for e in range(c0, c1):
                        ch = child_idx[e]
                        cw = word[ch]
                        cs = strip_of[ch] * 64
                        w = w | cw
                        if cw == ones:
                            for j in range(64):
                                strips[s + j] = strips[s + j] + strips[cs + j]
                        elif cw != zero:
                            for j in range(64):
                                strips[s + j] = strips[s + j] + (
                                    strips[cs + j] if (cw & bit[j]) != zero else 0.0
                                )
                elif kind == _K_PROD:
                    w = ones
                    for e in range(c0, c1):
                        w = w & word[child_idx[e]]
                    if w != zero:
                        for j in range(64):
                            strips[s + j] = 1.0
                        for e in range(c0, c1):
                            cs = strip_of[child_idx[e]] * 64
                            for j in range(64):
                                strips[s + j] = strips[s + j] * strips[cs + j]
                elif kind == _K_INV:
                    ch = child_idx[c0]
                    w = word[ch]
                    if w != zero:
                        cs = strip_of[ch] * 64
                        nonzero = zero
                        for j in range(64):
                            x = strips[cs + j]
                            if x != 0.0:  # 1/0 is undefined, never inf
                                strips[s + j] = 1.0 / x
                                nonzero = nonzero | bit[j]
                        w = w & nonzero
                elif kind == _K_POW:
                    ch = child_idx[c0]
                    w = word[ch]
                    if w != zero:
                        cs = strip_of[ch] * 64
                        exp = pow_exp[v]  # >= 0: negative lowered to INV
                        for j in range(64):
                            strips[s + j] = strips[cs + j] ** exp
                elif kind == _K_DIST:
                    # Lane pairs reduced left to right, as in _masked_sweep.
                    w = ones
                    for e in range(c0, c1):
                        w = w & word[child_idx[e]]
                    if w != zero:
                        wide = c1 - c0 > 2
                        squared = metric[v] == 1 or (wide and metric[v] == 0)
                        for j in range(64):
                            strips[s + j] = 0.0
                        for e in range(c0, c1, 2):
                            ls = strip_of[child_idx[e]] * 64
                            rs = strip_of[child_idx[e + 1]] * 64
                            if squared:
                                for j in range(64):
                                    x = strips[ls + j] - strips[rs + j]
                                    strips[s + j] = strips[s + j] + x * x
                            else:
                                for j in range(64):
                                    x = strips[ls + j] - strips[rs + j]
                                    strips[s + j] = strips[s + j] + (-x if x < 0.0 else x)
                        if wide and metric[v] == 0:
                            for j in range(64):
                                strips[s + j] = math.sqrt(strips[s + j])
                else:  # GUARD, LOOP_IN: the strip is ready
                    w = word[child_idx[c0]]
                word[v] = w
        for r in range(n_roots):
            out[r * n_blocks + blk] = word[roots[r]]
    return n_live


# ----------------------------------------------------------------------
# The native tier: C generated from the two kernels above
# (repro.engine.cgen), built with the system compiler and loaded via
# ctypes.  The code is generic over programs (all structure arrives as
# runtime arrays), so one shared library serves the whole process; it
# is cached on disk under a key that needs no source or AST work, and
# the emitter is imported only when that cache misses.
# ----------------------------------------------------------------------

#: C-level arguments of each native function, in call order (the key
#: forms are :mod:`repro.engine.cgen`'s).  One table drives both the
#: emitted prototype and the ctypes ``argtypes``.
_SIGNATURES: Dict[str, Dict[str, str]] = {
    "_masked_sweep": {
        "seeds": "const int64_t *", "seeds.shape[0]": "int64_t",
        "cone": "const int64_t *", "cone.shape[0]": "int64_t",
        "assign": "const int8_t *",
        # The program: read-only structure arrays (_kernel_program).
        "kinds": "const int64_t *", "var_index": "const int64_t *",
        "atom_op": "const int64_t *", "pow_exp": "const int64_t *",
        "metric": "const int64_t *",
        "child_off": "const int64_t *", "child_idx": "const int64_t *",
        "par_off": "const int64_t *", "par_idx": "const int64_t *",
        "is_bool": "const uint8_t *", "guard_val": "const double *",
        # The state columns the sweep mutates in place.
        "b": "int8_t *", "lo": "double *", "hi": "double *",
        "mu": "uint8_t *", "md": "uint8_t *",
        "resolved": "uint8_t *", "dirty": "uint8_t *",
        # The trail buffers it fills, one entry per vertex it overwrote.
        "t_tag": "uint8_t *", "t_vid": "int64_t *", "t_b": "int8_t *",
        "t_lo": "double *", "t_hi": "double *",
        "t_mu": "uint8_t *", "t_md": "uint8_t *",
        "return": "int64_t", "return[1]": "int64_t *",
    },
    "_world_block": {
        "var_words": "const uint64_t *", "var_words.shape[1]": "int64_t",
        "roots": "const int64_t *", "roots.shape[0]": "int64_t",
        "out": "uint64_t *",
        # The same program arrays as the sweep's, parents aside.
        "kinds": "const int64_t *", "kinds.shape[0]": "int64_t",
        "var_index": "const int64_t *",
        "atom_op": "const int64_t *", "pow_exp": "const int64_t *",
        "metric": "const int64_t *",
        "child_off": "const int64_t *", "child_idx": "const int64_t *",
        "is_bool": "const uint8_t *", "guard_val": "const double *",
        "bit": "const uint64_t *",
        # Scratch, allocated per call.
        "sched": "int64_t *", "strip_of": "int64_t *",
        "word": "uint64_t *", "strips": "double *",
        "return": "int64_t",
    },
}


def _kernel_constants() -> Dict[str, object]:
    """The numeric module constants a kernel may name (inlined in the C)."""
    return {k: v for k, v in globals().items() if type(v) in (int, float)}


def _c_source() -> str:
    """The native tier's C, emitted from this file's kernel functions."""
    from . import cgen  # deferred: only a cache miss pays for ast + emit

    with open(__file__, encoding="utf-8") as handle:
        text = handle.read()
    return cgen.emit_c(text, _SIGNATURES, _kernel_constants(), "engine/kernels.py")


def _native_cache_dir() -> str:
    configured = os.environ.get("REPRO_KERNEL_CACHE")
    if configured:
        return configured
    return os.path.join(
        tempfile.gettempdir(), f"repro-kernels-{os.getuid()}"
    )


def _compile_shared(source: str, so_path: str, compiler, flags) -> None:
    """Compile ``source`` into ``so_path`` (atomically, via a temp name)."""
    stem = f"{so_path[:-3]}_{os.getpid()}"
    c_path, tmp_so = stem + ".c", stem + ".so.tmp"
    with open(c_path, "w") as handle:
        handle.write(source)
    arguments = ["-O2", "-shared", "-fPIC", *flags, "-o", tmp_so, c_path, "-lm"]

    def run(argv):
        return subprocess.run([*argv, *arguments], capture_output=True, timeout=120)

    try:
        try:
            done = run(compiler)
        except (FileNotFoundError, PermissionError):
            compiler = ["gcc"]
            done = run(compiler)
        if done.returncode != 0:
            # The compiler's own words are the reason the tier is rejected.
            stderr = done.stderr.decode(errors="replace").strip().splitlines()
            raise RuntimeError(
                f"{shlex.join(compiler)} exited {done.returncode}: "
                + " | ".join(stderr[:6])
            )
        os.replace(tmp_so, so_path)
    finally:
        for stale in (c_path, tmp_so):
            try:
                os.unlink(stale)
            except OSError:
                pass


def _build_native_library() -> ctypes.CDLL:
    """Compile (or reuse) the shared library and load it.

    ``CC`` names the compiler (a command line: ``"ccache gcc"`` works);
    ``REPRO_KERNEL_CFLAGS`` appends extra flags (the ASan/UBSan CI leg
    passes ``-fsanitize=address,undefined``).  The cache key is the raw
    bytes of this file and of the emitter, the inlined constants, and
    both command lines — everything the C depends on, without
    generating it — so sanitized and plain builds never collide and a
    warm start reads two files instead of parsing one.
    """
    compiler = shlex.split(os.environ.get("CC", "")) or ["cc"]
    flags = shlex.split(os.environ.get("REPRO_KERNEL_CFLAGS", ""))
    digest = hashlib.sha256(
        repr((sorted(_kernel_constants().items()), compiler, flags)).encode()
    )
    for path in (__file__, os.path.join(os.path.dirname(__file__), "cgen.py")):
        with open(path, "rb") as handle:
            digest.update(handle.read())
    cache_dir = _native_cache_dir()
    os.makedirs(cache_dir, exist_ok=True)
    so_path = os.path.join(
        cache_dir, f"masked_sweep_{digest.hexdigest()[:16]}.so"
    )
    if not os.path.exists(so_path):
        _compile_shared(_c_source(), so_path, compiler, flags)
    return ctypes.CDLL(so_path)


# ----------------------------------------------------------------------
# Backends
# ----------------------------------------------------------------------

_CTYPES = {
    "int64_t": ctypes.c_int64,
    "double": ctypes.c_double,
}


def _bind(lib: ctypes.CDLL, name: str):
    """The C function emitted for kernel ``name``, typed from its table."""
    signature = _SIGNATURES[name]
    function = getattr(lib, name.lstrip("_"))
    function.restype = _CTYPES[signature["return"]]
    function.argtypes = [
        _CTYPES.get(ctype, ctypes.c_void_p)  # every pointer is a raw address
        for key, ctype in signature.items()
        if key != "return"
    ]
    return function


class _Backend:
    """One compiled kernel tier.

    ``sweep_py`` / ``block_py`` are callables taking the full array
    argument lists of :func:`_masked_sweep` / :func:`_world_block` (the
    kernel source itself, which the test suite runs as a reference);
    ``sweep_c`` / ``block_c`` are raw ctypes functions for the native
    tier (the masked evaluator precomputes its sweep's pointer
    arguments).  Any of them may be ``None``.
    """

    def __init__(self, name, sweep_py=None, block_py=None, lib=None):
        self.name = name
        self.sweep_py = sweep_py
        self.block_py = block_py
        self.sweep_c = _bind(lib, "_masked_sweep") if lib else None
        self.block_c = _bind(lib, "_world_block") if lib else None

    def run_block(self, var_words, roots, out, kinds, *arrays) -> int:
        """One :func:`_world_block` call through this tier."""
        if self.block_c is None:
            return int(self.block_py(var_words, roots, out, kinds, *arrays))
        return self.block_c(
            var_words.ctypes.data, var_words.shape[1],
            roots.ctypes.data, len(roots), out.ctypes.data,
            kinds.ctypes.data, len(kinds),
            *(array.ctypes.data for array in arrays),
        )


def _make_native_backend() -> _Backend:
    return _Backend("native", lib=_build_native_library())


#: The compiled tiers, top of the ladder first.
_BUILDERS = {"native": _make_native_backend}

_BACKEND_CACHE: Dict[str, Optional[_Backend]] = {}


def _validate_backend(backend: _Backend) -> bool:
    """Check both kernels on a canned network; True on parity.

    The sweep drives a push/pop walk against the Python evaluator; the
    world block evaluates 70 worlds (a full block and a partial one)
    against the dense NumPy sweep.
    """
    # Deferred: building networks pulls in packages that import this one.
    from ..events.expressions import (
        atom, cdist, cinv, cond, conj, cpow, cprod, csum, disj, guard,
        negate, var,
    )
    from ..network.build import build_targets
    from .bulk import BulkEvaluator

    try:
        events = {
            "b": disj([conj([var(0), var(1)]), negate(var(2))]),
            "n": atom(
                "<=",
                guard(var(0), 1.0) + guard(var(1), 2.0),
                guard(disj([var(1), var(2)]), 2.5),
            ),
            # Vector c-values: lane-wise SUM feeding an n-ary lane DIST.
            "v": atom(
                "<=",
                cdist(
                    guard(negate(var(2)), [0.5, 0.25, 2.0]),
                    csum([
                        guard(var(0), [1.0, 0.0, 0.5]),
                        guard(var(1), [0.0, 1.0, 0.5]),
                    ]),
                ),
                guard(disj([var(0), var(2)]), 1.25),
            ),
            # COND, PROD, POW and an INV whose operand can be zero.
            "k": atom(
                ">",
                cprod([
                    cinv(guard(var(0), 1.0) + guard(var(1), -1.0)),
                    cpow(cond(var(2), guard(var(1), 1.5)), 2),
                ]),
                guard(var(2), -2.0),
            ),
        }
        network = build_targets(events)
        oracle = MaskedEvaluator(network)
        candidate = KernelMaskedEvaluator(network, backend)

        def _norm(state):
            if not isinstance(state, NumState):
                return ("bool", int(state))
            if not state.may_def:
                return ("num", None, None, bool(state.may_u), False)
            return (
                "num",
                np.asarray(state.lo).tolist(),
                np.asarray(state.hi).tolist(),
                bool(state.may_u),
                True,
            )

        nodes = range(len(network.nodes))
        baseline = [_norm(candidate._state_of(n)) for n in nodes]
        walk = [
            (0, True), (1, False), (None, None), (2, True), (1, True),
        ]
        for variable, value in walk:
            if variable is None:
                oracle.pop()
                candidate.pop()
            else:
                oracle.push(variable, value)
                candidate.push(variable, value)
            for node_id in nodes:
                if _norm(oracle.node_state(node_id)) != _norm(
                    candidate.node_state(node_id)
                ):
                    return False
        candidate.rewind_to(0)
        if [_norm(candidate._state_of(n)) for n in nodes] != baseline:
            return False
        assignments = np.random.default_rng(0).random((70, 3)) < 0.5
        roots = list(network.targets.values())
        expected = BulkEvaluator(network).evaluate(assignments, roots)
        actual = WorldBlockEvaluator(network, backend).evaluate(assignments, roots)
        return all(np.array_equal(actual[r], expected[r]) for r in roots)
    except Exception:
        return False


def get_backend(name: str = "auto") -> Optional[_Backend]:
    """Resolve a kernel tier; ``None`` means: use the Python evaluator.

    Backends are built once per process and self-validated against the
    Python evaluator before first use; an unavailable or non-validating
    tier falls back down the ladder (native → python), with the reason
    recorded in :data:`BACKEND_ERRORS`.
    """
    if name == "python":
        return None
    if name == "auto":
        name = "native"  # the top rung
    if name not in _BUILDERS:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {KERNEL_NAMES}"
        )
    if name not in _BACKEND_CACHE:
        backend: Optional[_Backend] = None
        try:
            backend = _BUILDERS[name]()
        except Exception as exc:  # unavailable tier: record and fall back
            BACKEND_ERRORS[name] = f"{type(exc).__name__}: {exc}"
        if backend is not None and not _validate_backend(backend):
            BACKEND_ERRORS[name] = "failed self-validation against the oracle"
            backend = None
        _BACKEND_CACHE[name] = backend
    return _BACKEND_CACHE[name]


def _is_live(name: str) -> bool:
    """Whether the compiled tier ``name`` loads and self-validates."""
    return get_backend(name) is not None


def available_kernels() -> Tuple[str, ...]:
    """Kernel names that resolve to a working tier in this process."""
    return tuple(sorted(["auto", "python", *filter(_is_live, _BUILDERS)]))


# ----------------------------------------------------------------------
# Kernel-program arrays (cached per MaskedProgram)
# ----------------------------------------------------------------------


def _kernel_program(program: MaskedProgram) -> Dict[str, np.ndarray]:
    cached = getattr(program, "_kernel_cache", None)
    if cached is not None:
        return cached
    cached = {
        "kinds": np.ascontiguousarray(program.kinds, dtype=np.int64),
        "var_index": np.ascontiguousarray(program.var_index, dtype=np.int64),
        "atom_op": np.ascontiguousarray(program.atom_op, dtype=np.int64),
        "pow_exp": np.ascontiguousarray(program.pow_exponent, dtype=np.int64),
        "metric": np.ascontiguousarray(program.dist_metric, dtype=np.int64),
        "child_off": np.ascontiguousarray(program.child_offsets, dtype=np.int64),
        "child_idx": np.ascontiguousarray(program.child_indices, dtype=np.int64),
        "is_bool": np.ascontiguousarray(program.is_bool, dtype=np.uint8),
        "guard_val": np.ascontiguousarray(program.guard_value, dtype=np.float64),
    }
    program._kernel_cache = cached
    return cached


# ----------------------------------------------------------------------
# The kernel-backed evaluator
# ----------------------------------------------------------------------


def _sweep_arrays(seeds: np.ndarray, cone: np.ndarray) -> tuple:
    """One sweep's ``(seeds, cone)`` plus their raw pointers and lengths."""
    return (
        seeds, cone, seeds.ctypes.data, len(seeds), cone.ctypes.data, len(cone)
    )


class _KFrame:
    """One trail frame as column slices (restored vectorized on pop).

    A cone sweep trails each vertex at most once (the cone visits every
    vertex at most once per push), so the restore is order-independent
    and can be one fancy-indexed write per column.  The slots hold the
    kernel's trail entries in emission order.
    """

    __slots__ = ("tag", "vid", "b", "lo", "hi", "mu", "md")

    def __init__(self, tag, vid, b, lo, hi, mu, md):
        self.tag = tag
        self.vid = vid
        self.b = b
        self.lo = lo
        self.hi = hi
        self.mu = mu
        self.md = md

    def __len__(self) -> int:
        return len(self.vid)

    def restore(self, evaluator: "KernelMaskedEvaluator") -> None:
        vids = self.vid
        is_b = self.tag == _TAG_BOOL
        bool_vids = vids[is_b]
        evaluator._b[bool_vids] = self.b[is_b]
        num = ~is_b
        num_vids = vids[num]
        evaluator._lo[num_vids] = self.lo[num]
        evaluator._hi[num_vids] = self.hi[num]
        evaluator._mu[num_vids] = self.mu[num]
        evaluator._md[num_vids] = self.md[num]
        evaluator._resolved[vids] = 0


class KernelMaskedEvaluator(MaskedEvaluator):
    """:class:`MaskedEvaluator` with compiled cone sweeps.

    The observable protocol — ``push``/``pop``/``rewind_to``, states,
    trail emission order, ``evals`` accounting — is identical to the
    Python evaluator; only the sweep executes in the backend.  Columns
    are promoted from Python lists to shared NumPy buffers the kernel
    mutates in place; every inherited query method keeps working
    because the arrays support the same per-element indexing.
    """

    def __init__(self, network: EventNetwork, backend: _Backend) -> None:
        program = self._bind(network)
        self._backend = backend
        self.kernel = backend.name
        size = len(program)
        self._b = np.full(size, B_UNKNOWN, dtype=np.int8)
        self._lo = np.full(size, _NAN, dtype=np.float64)
        self._hi = np.full(size, _NAN, dtype=np.float64)
        self._mu = np.zeros(size, dtype=np.uint8)
        self._md = np.zeros(size, dtype=np.uint8)
        self._resolved = np.zeros(size, dtype=np.uint8)
        self._dirty = np.zeros(size, dtype=np.uint8)
        max_var = (
            int(program.var_index.max()) if program.var_index.size else -1
        )
        self._assign = np.full(max(max_var + 1, 1), -1, dtype=np.int8)
        self._karrays = _kernel_program(program)
        self._t_tag = np.zeros(size, dtype=np.uint8)
        self._t_vid = np.zeros(size, dtype=np.int64)
        self._t_b = np.zeros(size, dtype=np.int8)
        self._t_lo = np.zeros(size, dtype=np.float64)
        self._t_hi = np.zeros(size, dtype=np.float64)
        self._t_mu = np.zeros(size, dtype=np.uint8)
        self._t_md = np.zeros(size, dtype=np.uint8)
        self._evals_out = np.zeros(1, dtype=np.int64)
        k = self._karrays
        par_off, par_idx = program.parents_csr()  # int64, contiguous
        self._py_args = (
            self._assign,
            k["kinds"], k["var_index"], k["atom_op"], k["pow_exp"],
            k["metric"], k["child_off"], k["child_idx"], par_off, par_idx,
            k["is_bool"], k["guard_val"],
            self._b, self._lo, self._hi, self._mu, self._md,
            self._resolved, self._dirty,
            self._t_tag, self._t_vid, self._t_b, self._t_lo, self._t_hi,
            self._t_mu, self._t_md,
        )
        if backend.sweep_c is not None:
            self._c_args = tuple(arr.ctypes.data for arr in self._py_args) + (
                self._evals_out.ctypes.data,
            )
        else:
            self._c_args = None
        # Per-variable (seeds, cone) arrays — and their raw pointers for
        # the native tier — cached across pushes.
        self._var_cache: Dict[int, tuple] = {}
        # Baseline sweep under the empty assignment, through the backend:
        # every vertex seeded, the whole vertex space as the cone, the
        # trail discarded.  Everything resolved here stays resolved.
        everything = np.arange(size, dtype=np.int64)
        self._sweep_kernel(_sweep_arrays(everything, everything))

    # -- sweeping through the backend -----------------------------------

    def _var_arrays(self, var_index: int) -> tuple:
        cached = self._var_cache.get(var_index)
        if cached is None:
            cached = _sweep_arrays(
                np.asarray(self._prog.var_vertices(var_index), dtype=np.int64),
                np.ascontiguousarray(
                    self._prog.var_cone(var_index), dtype=np.int64
                ),
            )
            self._var_cache[var_index] = cached
        return cached

    def _sweep_kernel(self, arrays: tuple) -> int:
        """One backend sweep; returns how many trail entries it wrote."""
        seeds, cone, seeds_ptr, n_seeds, cone_ptr, n_cone = arrays
        backend = self._backend
        if backend.sweep_c is not None:
            n = backend.sweep_c(
                seeds_ptr, n_seeds, cone_ptr, n_cone, *self._c_args
            )
            evals = self._evals_out[0]
        else:
            n, evals = backend.sweep_py(seeds, cone, *self._py_args)
        self.evals += int(evals)
        return int(n)

    # -- trail protocol overrides ---------------------------------------

    def push(self, var_index: Optional[int] = None, value: bool = True) -> None:
        self._resolved_version += 1
        if var_index is None:
            self._frames.append([])
            self._frame_vars.append(None)
            return
        self.assignment[var_index] = value
        if 0 <= var_index < self._assign.shape[0]:
            # Variables without VAR vertices never reach the kernel.
            self._assign[var_index] = 1 if value else 0
        self._frame_vars.append(var_index)
        n = self._sweep_kernel(self._var_arrays(var_index))
        self._frames.append(
            _KFrame(
                self._t_tag[:n].copy(),
                self._t_vid[:n].copy(),
                self._t_b[:n].copy(),
                self._t_lo[:n].copy(),
                self._t_hi[:n].copy(),
                self._t_mu[:n].copy(),
                self._t_md[:n].copy(),
            )
        )

    def pop(self, var_index: Optional[int] = None) -> None:
        recorded = self._frame_vars[-1]
        super().pop(var_index)
        if recorded is not None and 0 <= recorded < self._assign.shape[0]:
            self._assign[recorded] = -1

    def _restore_frame(self, frame) -> None:
        if len(frame):  # a bare push() opens an empty list frame
            frame.restore(self)


# ----------------------------------------------------------------------
# The world-block evaluator
# ----------------------------------------------------------------------

#: ``_BITS[j] == 1 << j``: the world block's lane masks (cgen has no shifts).
_BITS = np.left_shift(np.uint64(1), np.arange(64, dtype=np.uint64))


def n_words(worlds: int) -> int:
    """Words (64-world blocks) needed for ``worlds`` worlds."""
    return (int(worlds) + 63) // 64


def pack_bool_column(columns: np.ndarray) -> np.ndarray:
    """Pack bool columns ``(..., W)`` into ``(..., n_words(W))`` uint64 words.

    World ``w`` is bit ``w % 64`` of word ``w // 64``; bits past ``W``
    are zero.
    """
    columns = np.asarray(columns, dtype=bool)
    worlds = columns.shape[-1]
    padded = np.zeros(columns.shape[:-1] + (n_words(worlds) * 64,), dtype=bool)
    padded[..., :worlds] = columns
    return np.packbits(padded, axis=-1, bitorder="little").view(np.uint64)


def unpack_bool_column(words: np.ndarray, worlds: int) -> np.ndarray:
    """The inverse of :func:`pack_bool_column` (the first ``worlds`` bits)."""
    bits = np.unpackbits(
        np.ascontiguousarray(words).view(np.uint8),
        axis=-1,
        count=int(worlds),
        bitorder="little",
    )
    return bits.view(np.bool_)


class WorldBlockEvaluator:
    """Bulk evaluation through :func:`_world_block`, 64 worlds per word.

    A drop-in for the dense :class:`repro.engine.bulk.BulkEvaluator` —
    the same ``evaluate`` contract and the same Boolean outcome in every
    world — on flat and folded networks alike: both are one
    :class:`~repro.engine.masked.MaskedProgram` (lanes lowered,
    iterations unrolled), and one kernel call sweeps every block of a
    batch.  Only Boolean nodes can be read out; numeric strips never
    leave the kernel.
    """

    def __init__(self, network: EventNetwork, backend: _Backend) -> None:
        self.kernel = backend.name
        self._backend = backend
        self._program = program = masked_program(network)
        k = _kernel_program(program)
        self._arrays = (
            k["kinds"], k["var_index"], k["atom_op"], k["pow_exp"],
            k["metric"], k["child_off"], k["child_idx"], k["is_bool"],
            k["guard_val"], _BITS,
        )
        self._variables = int(program.var_index.max(initial=-1)) + 1

    def evaluate(
        self, assignments: np.ndarray, node_ids: Sequence[int]
    ) -> Dict[int, np.ndarray]:
        """Boolean outcomes of ``node_ids`` in every world of the batch.

        ``assignments`` is a ``(W, |X|)`` bool matrix, one total
        valuation per row; returns ``{node_id: (W,) bool}``.
        """
        program = self._program
        roots = program.final_vertex[np.asarray(node_ids, dtype=np.int64)]
        if not program.is_bool[roots].all():
            raise TypeError("the world block reads out Boolean nodes only")
        if assignments.shape[1] < self._variables:
            raise IndexError(
                f"the network reads {self._variables} variables, "
                f"the batch assigns {assignments.shape[1]}"
            )
        var_words = pack_bool_column(np.transpose(assignments))
        out = np.empty(len(roots) * var_words.shape[1], dtype=np.uint64)
        rows = len(program)
        self._backend.run_block(
            var_words, roots, out, *self._arrays,
            np.empty(rows, dtype=np.int64),  # sched
            np.zeros(rows, dtype=np.int64),  # strip_of
            np.empty(rows, dtype=np.uint64),  # word
            np.zeros(rows * 64),  # strips
        )
        outcomes = unpack_bool_column(
            out.reshape(len(roots), var_words.shape[1]), assignments.shape[0]
        )
        return {int(node): outcomes[i] for i, node in enumerate(node_ids)}


_warned_unknown_kernel = False


def default_kernel() -> str:
    """The process-wide default tier (``REPRO_KERNEL`` or ``auto``).

    An unrecognised ``REPRO_KERNEL`` value falls back to ``auto`` but
    warns once per process — a typo like ``REPRO_KERNEL=numa`` should
    not silently benchmark the wrong tier.
    """
    global _warned_unknown_kernel
    name = os.environ.get("REPRO_KERNEL", "auto")
    if name in KERNEL_NAMES:
        return name
    if not _warned_unknown_kernel:
        _warned_unknown_kernel = True
        warnings.warn(
            f"REPRO_KERNEL={name!r} is not a known kernel tier "
            f"(expected one of {', '.join(KERNEL_NAMES)}); "
            "falling back to 'auto'",
            RuntimeWarning,
            stacklevel=2,
        )
    return "auto"


def kernel_status() -> Dict[str, object]:
    """A report of every kernel tier's availability in this process.

    Returns a dict with:

    * ``tiers`` — ``{name: {"live": bool, "error": str | None}}`` for
      each concrete tier (``native``/``python``), probing
      each backend (which self-validates against the Python oracle on
      first use);
    * ``default`` — what :func:`default_kernel` returns;
    * ``auto`` — the concrete tier ``auto`` resolves to right now;
    * ``env`` / ``env_valid`` — the raw ``REPRO_KERNEL`` value and
      whether it names a known tier.
    """
    tiers: Dict[str, Dict[str, object]] = {
        name: {"live": _is_live(name), "error": BACKEND_ERRORS.get(name)}
        for name in _BUILDERS
    }
    tiers["python"] = {"live": True, "error": None}
    auto = get_backend("auto")
    env = os.environ.get("REPRO_KERNEL")
    return {
        "tiers": tiers,
        "default": default_kernel(),
        "auto": auto.name if auto is not None else "python",
        "env": env,
        "env_valid": env is None or env in KERNEL_NAMES,
    }


def make_masked_evaluator(
    network: EventNetwork, kernel: Optional[str] = None
) -> MaskedEvaluator:
    """A masked evaluator driven by the requested kernel tier.

    ``kernel=None`` uses :func:`default_kernel`.  The Python evaluator
    is returned only when it is asked for or no compiled backend is
    live — never because of the network, which every tier evaluates.
    """
    name = kernel if kernel is not None else default_kernel()
    if name not in KERNEL_NAMES:
        raise ValueError(
            f"unknown kernel {name!r}; expected one of {KERNEL_NAMES}"
        )
    backend = get_backend(name)
    if backend is None:
        return MaskedEvaluator(network)
    return KernelMaskedEvaluator(network, backend)
