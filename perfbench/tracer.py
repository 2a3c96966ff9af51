"""Spans around rydtherm's layer functions, recorded from outside the package.

Each wrapped function records a span (layer name, start, end, parent span)
while recording is on.  Spans are kept in flat arrays in memory and written
out once, when the run ends.  A layer's self time is its span durations
minus the time covered by its direct child spans.

Names that other modules import with ``from .x import y`` are replaced in
every ``rydtherm`` module namespace that holds them; methods are replaced
on their class.
"""

import functools
import sys
from array import array
from time import perf_counter

# layer -> (module, attribute) of every function that counts as that layer.
# "Class.method" attributes are patched on the class.
LAYERS = {
    "radial.solve": [("rydtherm.radial", "RadialSolver.solve")],
    "radial.pair": [
        ("rydtherm.radial", "RadialSolver.radial_integral"),
        ("rydtherm.radial", "RadialSolver.j0_average"),
        ("rydtherm.radial", "RadialSolver.bessel_average"),
    ],
    "lattice.magic": [("rydtherm.lattice", "solve_magic_wavelength")],
    "lattice.sin2": [("rydtherm.radial", "sin2_matrix_element")],
    "lattice.alpha": [("rydtherm.lattice", "lattice_alpha_au")],
    "transitions.table": [("rydtherm.transitions", "build_transition_table")],
    "bbr.shift": [("rydtherm.bbr", "bbr_shift_sum")],
    "bbr.kernel": [("rydtherm.bbr", "farley_wing_fast")],
    "bbr.tail": [("rydtherm.bbr", "truncation_tail_shift")],
    "thermometry.model": [("rydtherm.thermometry", "transition_bbr_shift")],
    "polarizability.static": [
        ("rydtherm.polarizability", "static_polarizability")
    ],
    "species.load": [("rydtherm.species", "load_species")],
    "cli.main": [("rydtherm.cli", "main")],
}
# Layers patched only where one module calls them: the Legendre moments of
# the orbit average, as the radial layer calls them.
LOCAL_LAYERS = {"wigner.moment": ("rydtherm.radial", "legendre_moment")}
TABLE_LAYER = "transitions.table"


class Tracer:
    def __init__(self):
        self.names = list(LAYERS) + list(LOCAL_LAYERS)
        self._name_id = {name: i for i, name in enumerate(self.names)}
        self.recording = False
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = []
        # transition tables seen so far, by identity (kept alive so that an
        # id is never reused): a call that returns a table not seen before
        # has built it, any other call was a cache hit
        self._tables = {}
        self.table_builds = 0

    def _wrap(self, layer, fn):
        layer_id = self._name_id[layer]
        count_builds = layer == TABLE_LAYER

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.recording:
                out = fn(*args, **kwargs)
                if count_builds:
                    self._tables[id(out)] = out
                return out
            idx = len(self.name)
            self.name.append(layer_id)
            self.start.append(0.0)
            self.end.append(0.0)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self._stack.append(idx)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.start[idx] = t0
                self.end[idx] = t1
            if count_builds and id(out) not in self._tables:
                self._tables[id(out)] = out
                self.table_builds += 1
            return out

        return traced

    def install(self):
        """Replace every layer function in the loaded rydtherm modules."""
        modules = [
            m for name, m in list(sys.modules.items())
            if name == "rydtherm" or name.startswith("rydtherm.")
        ]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    setattr(cls, meth, self._wrap(layer, getattr(cls, meth)))
                    continue
                original = getattr(owner, attr)
                wrapped = self._wrap(layer, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            setattr(m, key, wrapped)
        for layer, (module_name, attr) in LOCAL_LAYERS.items():
            owner = sys.modules[module_name]
            setattr(owner, attr, self._wrap(layer, getattr(owner, attr)))

    def totals(self):
        """Per layer: (calls, self seconds)."""
        n = len(self.name)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i in range(n):
            k = self.name[i]
            calls[k] += 1
            self_s[k] += self.end[i] - self.start[i] - child[i]
        return {
            name: (calls[k], self_s[k]) for k, name in enumerate(self.names)
        }

    def write(self, path):
        """Write the spans as tab-separated lines: name, start, end, parent."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tname\tstart_s\tend_s\tparent\n")
            for i in range(len(self.name)):
                fh.write(
                    f"{i}\t{self.names[self.name[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\n"
                )
