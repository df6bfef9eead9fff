"""Contraction programs: a contraction tree compiled once into flat steps.

Every contraction of the Monte Carlo oracle runs here: rho's tree and
<psi|psi> (`montecarlo.reduced_spectrum`), the tr rho^p rings
(`tracenet`), `StateVector.tensor` and the frame of a unitary override.
Each step is a conj() or one tensordot-like join whose transposes,
matrix shapes and buffers are fixed when the program is compiled, so a
trial only runs numpy calls on buffers it reuses (Pfeifer, Haegeman and
Verstraete, PRE 90, 033315, 2014; Gray and Kourtis, Quantum 5, 410,
2021).  `montecarlo` loads this module on its first contraction, so a
command that samples nothing never compiles it.
"""

import itertools
import math
import threading

import numpy as np

from .montecarlo import _JOIN_COST, _mirror


class Program:
    """A contraction tree compiled once into steps on reused buffers.

    A tree is an operand index, () for no operands, or (a, b, copy): a's
    result joined to b's (b's alone if a is None), then with `copy` to b's
    copy, the conj() of b's result with `_mirror`ed labels.  A join is
    tensordot's work with its bookkeeping done here: each input transposed
    to matrix form, copied to a buffer only where tensordot's reshape
    copies, then one np.dot into a buffer.  With `side` the last join
    writes rho, the `side` legs first and their negatives after; where its
    larger input is as large as rho, has `_JOIN_COST` entries or more and
    would be copied, by slices of that input's leading legs, none over a
    sixteenth of it, so no third rho-sized array is made.  What a step
    writes takes the best-fitting free buffer, else the largest one grown;
    a buffer is freed once the last step that reads it has run, an input
    copied whole once it is copied, and where rho comes after a join's one
    product, that product's inputs before rho is written.
    """

    def __init__(self, labels, shapes, dtypes, tree, summed=None, side=None):
        self.dtype = np.result_type(*dtypes) if dtypes else np.dtype(complex)
        self.values, self.leaves, self.steps = [], [], []    # values: (label, size) legs

        def value(legs):
            self.values.append(tuple(legs))
            return len(self.values) - 1

        def size(legs):
            return math.prod(n for _, n in legs)

        def matrix(legs, axes, first):    # tensordot's transpose and reshape, and a buffer to copy to
            free = [i for i in range(len(legs)) if i not in axes]
            perm, cut = (free + axes, len(free)) if first else (axes + free, len(axes))
            groups = perm[:cut], perm[cut:]
            # a view where each group is a run of axes (C order, none of size 1)
            copy = any(g and g != list(range(g[0], g[0] + len(g))) for g in groups)
            return perm, [size(legs[i] for i in g) for g in groups], (
                value(legs[i] for i in perm) if copy else None)

        def join(x, y, side=None):
            pair = self.values[x], self.values[y]
            shared = [label for label, _ in pair[0] if label in dict(pair[1])]
            axes = [[[label for label, _ in legs].index(z) for z in shared] for legs in pair]
            legs = [leg for leg in pair[0] + pair[1] if leg[0] not in shared]
            rows = [leg for leg in legs if leg[0] in (side or ())]
            order, lead, dest = rows + [(-label, n) for label, n in rows], 0, None
            big = int(size(pair[1]) > size(pair[0]))
            array, k = pair[big], len(shared)
            if side is not None and not (size(array) < max(_JOIN_COST, size(legs)) or axes[big] in (
                    list(range(k)), list(range(len(array) - k, len(array))))):
                while array[lead][0] not in shared and 16 * size(array[lead:]) > size(array):
                    lead += 1    # the larger input's leading legs, sliced
            if side is not None and (order != legs or lead):
                dest = [order.index(leg) for leg in legs]
            small = matrix(pair[1 - big], axes[1 - big], big)
            sliced = matrix(array[lead:], [i - lead for i in axes[big]], not big)
            cut = (len(pair[0]) - k) * big    # where the sliced legs sit among the join's
            heads = [(index, (slice(None),) * cut + index)
                     for index in np.ndindex(*[n for _, n in array[:lead]])]
            out = value(order if dest else legs)
            self.steps.append((_join, ((x, y)[1 - big], (x, y)[big]),
                               (out, small[2], sliced[2], dest and value(legs[:cut] + legs[cut + lead:])),
                               big, small[:2], sliced[:2], heads, dest,
                               (small[1][0], sliced[1][1]) if big else (sliced[1][0], small[1][1])))
            return out

        def walk(tree, side=None):
            if not isinstance(tree, tuple):    # an operand, its axes of size 1 dropped
                legs = [(label, n) for label, n in zip(labels[tree], shapes[tree]) if n > 1]
                self.leaves.append((len(self.values), tree, tuple(n for _, n in legs)))
                return value(legs)
            a, b, copy = tree
            right = walk(b)
            if not copy:
                return join(walk(a), right, side)
            acc = right if a is None else join(walk(a), right)
            legs = self.values[right]
            mirror = value(zip(_mirror([label for label, _ in legs], summed), [n for _, n in legs]))
            self.steps.append((_conj, (right,), (mirror,)))
            return join(acc, mirror, side)

        self.result = walk(tree, side) if tree != () else None
        self.labels = tuple(label for label, _ in self.values[self.result]) if self.values else ()
        last = {v: i for i, (_, inputs, *_) in enumerate(self.steps) for v in inputs}
        self.sizes, self.slot, free, done = [], {}, [], set()

        def place(values):
            for v in (v for v in values if v is not None):
                n = size(self.values[v])
                s = min(free, key=lambda s: (self.sizes[s] < n, abs(self.sizes[s] - n)), default=None)
                if s is None:
                    s = len(self.sizes)
                    self.sizes.append(n)
                else:
                    free.remove(s)
                self.slot[v], self.sizes[s] = s, max(self.sizes[s], n)

        def retire(values):    # those no later step reads
            for v in values:
                if v in self.slot and v not in done and last.get(v, i) == i:
                    done.add(v)
                    free.append(self.slot[v])

        for i, (_, inputs, outputs, *args) in enumerate(self.steps):
            phases = [outputs, ()]    # a conj() reads while it writes
            if args:    # an input copied whole is free once copied; with one product,
                (out, cs, cb, piece), one = outputs, len(args[3]) == 1    # rho comes after it
                copied = [v for v, c, w in zip(inputs, (cs, cb), (True, one)) if c is not None and w]
                phases = ([(cs, cb), copied, (piece,), inputs + (cs, cb), (out,), ()]
                          if piece is not None and one else [(cs, cb), copied, (out, piece), ()])
            for values, freed in zip(phases[::2], phases[1::2]):
                place(values)
                retire(freed)
            retire(inputs + outputs)

    def bind(self, raws=None):
        """Each value's view on `raws` (buffers of its own if None), None for the operands."""
        raws = raws or buffers([self])
        return [raws[self.slot[v]][:math.prod(shape)].reshape(shape) if v in self.slot else None
                for v, shape in enumerate([n for _, n in legs] for legs in self.values)]

    def run(self, arrays, vals=None):
        """The tree's result on `arrays`, written to `vals`, the views of `bind`."""
        if self.result is None:
            return np.ones((), dtype=complex)
        vals = list(vals or self.bind())
        for v, i, shape in self.leaves:
            vals[v] = arrays[i].reshape(shape)
        for fn, *args in self.steps:
            fn(vals, *args)
        return vals[self.result]


def _matrix(x, perm, shape, copy):
    """tensordot's matrix form of x: a view, or the buffer `copy` filled."""
    if copy is None:
        return x.transpose(perm).reshape(shape)
    np.copyto(copy, x.transpose(perm))
    return copy.reshape(shape)


def _join(vals, inputs, outputs, first, ms, mb, heads, dest, flat):
    (small, big), (out, cs, cb, piece) = inputs, outputs
    m, array = _matrix(vals[small], *ms, cs and vals[cs]), vals[big]
    target = vals[piece or out].reshape(flat)
    for index, head in heads:    # one piece, or slices of the larger input written into rho
        s = _matrix(array[index], *mb, cb and vals[cb])
        np.dot(*((m, s) if first else (s, m)), out=target)
        if dest:
            np.copyto(vals[out].transpose(dest)[head], vals[piece])


def _conj(vals, inputs, outputs):
    np.conjugate(vals[inputs[0]], out=vals[outputs[0]])


def buffers(programs):
    """Buffers for programs run one after another: each slot as large as any of theirs."""
    sizes = map(max, itertools.zip_longest(*(p.sizes for p in programs), fillvalue=0))
    return [np.empty(n, dtype=programs[0].dtype) for n in sizes]


_held = threading.local()    # .views: the thread's last programs and each one's buffer views


def views(programs, extra=()):
    """Each program's `bind` views on the calling thread's one set of buffers,
    then one array of the programs' dtype for each shape in `extra`.

    The set is kept for `programs` until the thread asks for other
    programs' views, when it is freed before the new one is made, or
    calls `release`.  `extra` is read only when the set is made.
    """
    held = getattr(_held, "views", None)
    if held is None or held[0] is not programs:
        release()
        raws = buffers(programs)
        _held.views = held = programs, [program.bind(raws) for program in programs] + [
            np.empty(shape, dtype=programs[0].dtype) for shape in extra]
    return held[1]


def release():
    """Free the calling thread's buffers."""
    _held.views = None
